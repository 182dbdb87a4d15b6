"""Recursive-descent parser for the C subset exercised by OMP_Serial.

The grammar covers what loop-centric benchmark C actually uses:

- external declarations: functions, globals, ``struct``/``union``/``enum``
  and ``typedef`` declarations;
- the full statement set (``if``/``for``/``while``/``do``/``switch``/
  ``break``/``continue``/``return``/``goto``/labels/compounds);
- the full C expression grammar with correct precedence and
  associativity, including assignments, casts, ``sizeof``, the ternary and
  comma operators, pointer/array/member accesses and calls.

``#pragma`` lines are attached to the statement that follows them, which
is how OpenMP annotations reach the dataset labeller.

Parse failures raise :class:`~repro.cfront.errors.ParseError`; the dataset
pipeline treats that the way the paper treats Clang rejection (the source
file is dropped).
"""

from __future__ import annotations

from repro.cfront.errors import ParseError
from repro.cfront.lexer import Lexer
from repro.cfront.nodes import (
    ArraySubscriptExpr,
    BinaryOperator,
    BreakStmt,
    CallExpr,
    CaseStmt,
    CastExpr,
    CharLiteral,
    CompoundStmt,
    ConditionalOperator,
    ContinueStmt,
    Decl,
    DeclRefExpr,
    DeclStmt,
    DefaultStmt,
    DoStmt,
    EnumDecl,
    Expr,
    ExprStmt,
    FieldDecl,
    FloatingLiteral,
    ForStmt,
    FunctionDecl,
    GotoStmt,
    IfStmt,
    InitListExpr,
    IntegerLiteral,
    LabelStmt,
    MemberExpr,
    Node,
    ParmDecl,
    ReturnStmt,
    SizeofExpr,
    Stmt,
    StringLiteral,
    StructDecl,
    SwitchStmt,
    TranslationUnit,
    TypedefDecl,
    TypeSpec,
    UnaryOperator,
    VarDecl,
    WhileStmt,
)
from repro.cfront.tokens import COMPOUND_ASSIGN_OPS, Token, TokenKind

#: Type-specifier keywords that can open a declaration.
_TYPE_SPECIFIERS = frozenset(
    """
    void char short int long float double signed unsigned _Bool
    struct union enum
    """.split()
)

#: Storage/qualifier keywords absorbed into TypeSpec.qualifiers.
_QUALIFIERS = frozenset(
    "const volatile restrict static extern register auto inline typedef".split()
)

#: Binary operator precedence (higher binds tighter).  Assignment and the
#: ternary are handled separately because they are right-associative.
_BINOP_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_PREFIX_OPS = ("&", "*", "+", "-", "~", "!", "++", "--")


class Parser:
    """Token-stream → AST.  One instance per source file."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.typedefs: set[str] = set()
        self.struct_tags: set[str] = set()
        self.enum_constants: set[str] = set()
        #: struct/union/enum definitions parsed inside decl-specifiers,
        #: waiting to be attached to the surrounding declaration list.
        self._pending_tag_decls: list[Decl] = []

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # Hottest function of the frontend: index directly and let the
        # (rare) past-the-end case fall back to the EOF sentinel.
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def _next(self) -> Token:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            tok = self.tokens[-1]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}",
                             tok.line, tok.col)
        return self._next()

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _collect_pragmas(self) -> list[str]:
        pragmas: list[str] = []
        while self._peek().kind is TokenKind.PRAGMA:
            pragmas.append(self._next().text)
        return pragmas

    # -- type recognition ------------------------------------------------------

    def _starts_declaration(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is TokenKind.KEYWORD:
            return tok.text in _TYPE_SPECIFIERS or tok.text in _QUALIFIERS
        if tok.kind is TokenKind.IDENT and tok.text in self.typedefs:
            # ``T * x`` is a declaration only if T is a known typedef and the
            # following token shape matches a declarator.
            nxt = self._peek(offset + 1)
            return nxt.kind is TokenKind.IDENT or nxt.is_punct("*")
        return False

    # -- entry points ------------------------------------------------------------

    def parse_translation_unit(self) -> TranslationUnit:
        decls: list[Decl] = []
        while self._peek().kind is not TokenKind.EOF:
            if self._peek().kind is TokenKind.PRAGMA:
                # A file-level pragma not attached to a loop (e.g. ``omp
                # declare``); consume and drop.
                self._next()
                continue
            if self._accept_punct(";"):
                continue
            decls.extend(self._parse_external_declaration())
        return TranslationUnit(decls=decls)

    # -- external declarations ----------------------------------------------------

    def _parse_external_declaration(self) -> list[Decl]:
        base, quals = self._parse_decl_specifiers()
        tag_decls: list[Decl] = list(self._pending_tag_decls)
        self._pending_tag_decls.clear()
        if "typedef" in quals:
            return tag_decls + [self._parse_typedef(base, quals - {"typedef"})]

        # ``struct S { ... };`` with no declarators.
        if self._accept_punct(";"):
            return tag_decls

        first_type, first_name, first_tok = self._parse_declarator(base, quals)

        # Function definition or prototype?
        if self._peek().is_punct("(") and first_name:
            return tag_decls + [self._parse_function(first_type, first_name)]

        decls: list[Decl] = tag_decls
        decls.append(self._finish_var_decl(first_type, first_name, first_tok))
        while self._accept_punct(","):
            var_type, name, tok = self._parse_declarator(base, quals)
            decls.append(self._finish_var_decl(var_type, name, tok))
        self._expect_punct(";")
        return decls

    def _parse_typedef(self, base: TypeSpec, quals: frozenset[str]) -> TypedefDecl:
        var_type, name, _ = self._parse_declarator(base, quals)
        if not name:
            tok = self._peek()
            raise ParseError("typedef requires a name", tok.line, tok.col)
        self._expect_punct(";")
        self.typedefs.add(name)
        return TypedefDecl(name=name, aliased=var_type)

    def _finish_var_decl(self, var_type: TypeSpec, name: str, tok_i: int) -> VarDecl:
        init: Expr | None = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        return VarDecl(name=name, var_type=var_type, init=init, tok_i=tok_i)

    def _parse_initializer(self) -> Expr:
        if self._peek().is_punct("{"):
            self._next()
            items: list[Expr] = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return InitListExpr(items=items)
        return self._parse_assignment_expr()

    def _parse_function(self, ret_type: TypeSpec, name: str) -> FunctionDecl:
        self._expect_punct("(")
        params: list[ParmDecl] = []
        variadic = False
        if not self._peek().is_punct(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                self._next()
            else:
                while True:
                    if self._peek().is_punct("..."):
                        self._next()
                        variadic = True
                        break
                    params.append(self._parse_param())
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        body: CompoundStmt | None = None
        if self._peek().is_punct("{"):
            body = self._parse_compound()
        else:
            self._expect_punct(";")
        return FunctionDecl(
            name=name, ret_type=ret_type, params=params, body=body,
            is_variadic=variadic,
        )

    def _parse_param(self) -> ParmDecl:
        base, quals = self._parse_decl_specifiers()
        var_type, name, tok_i = self._parse_declarator(base, quals, allow_abstract=True)
        return ParmDecl(name=name, var_type=var_type, tok_i=tok_i)

    # -- declaration specifiers and declarators -------------------------------------

    def _parse_decl_specifiers(self) -> tuple[TypeSpec, frozenset[str]]:
        """Parse the type-specifier/qualifier prefix of a declaration."""
        quals: set[str] = set()
        base_words: list[str] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in _QUALIFIERS:
                quals.add(self._next().text)
            elif tok.is_keyword("struct", "union"):
                struct_node, tag = self._parse_struct_or_union()
                if struct_node.fields_:
                    self._pending_tag_decls.append(struct_node)
                base_words = [("union " if struct_node.is_union else "struct ") + tag]
            elif tok.is_keyword("enum"):
                enum_node, tag = self._parse_enum()
                if enum_node.enumerators:
                    self._pending_tag_decls.append(enum_node)
                base_words = ["enum " + tag]
            elif tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_SPECIFIERS:
                base_words.append(self._next().text)
            elif (
                tok.kind is TokenKind.IDENT
                and tok.text in self.typedefs
                and not base_words
            ):
                base_words.append(self._next().text)
            else:
                break
        if not base_words:
            base_words = ["int"]  # implicit int (K&R style)
        base = TypeSpec(base=" ".join(base_words), qualifiers=frozenset(quals))
        return base, frozenset(quals)

    def _parse_struct_or_union(self) -> tuple[StructDecl, str]:
        kw = self._next()  # struct / union
        is_union = kw.text == "union"
        tag = ""
        if self._peek().kind is TokenKind.IDENT:
            tag = self._next().text
            self.struct_tags.add(tag)
        fields: list[FieldDecl] = []
        if self._accept_punct("{"):
            while not self._peek().is_punct("}"):
                base, quals = self._parse_decl_specifiers()
                while True:
                    var_type, name, _ = self._parse_declarator(base, quals)
                    # Bitfields: ``int x : 3;``
                    if self._accept_punct(":"):
                        self._parse_conditional_expr()
                    fields.append(FieldDecl(name=name, var_type=var_type))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            self._expect_punct("}")
        if not tag:
            tag = f"<anon{kw.line}>"
        return StructDecl(name=tag, fields_=fields, is_union=is_union), tag

    def _parse_enum(self) -> tuple[EnumDecl, str]:
        self._next()  # enum
        tag = ""
        if self._peek().kind is TokenKind.IDENT:
            tag = self._next().text
        names: list[str] = []
        if self._accept_punct("{"):
            while not self._peek().is_punct("}"):
                name = self._expect_ident().text
                names.append(name)
                self.enum_constants.add(name)
                if self._accept_punct("="):
                    self._parse_conditional_expr()
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
        if not tag:
            tag = "<anon-enum>"
        return EnumDecl(name=tag, enumerators=names), tag

    def _parse_declarator(
        self, base: TypeSpec, quals: frozenset[str], allow_abstract: bool = False
    ) -> tuple[TypeSpec, str, int]:
        """Parse ``* ... name [dims]`` and return (type, name, token index)."""
        pointers = 0
        while self._peek().is_punct("*"):
            self._next()
            pointers += 1
            while self._peek().is_keyword("const", "volatile", "restrict"):
                self._next()
        name = ""
        tok_i = -1
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            name = self._next().text
            tok_i = tok.index
        elif not allow_abstract:
            raise ParseError(
                f"expected declarator name, found {tok.text!r}", tok.line, tok.col
            )
        dims: list[Expr | None] = []
        while self._peek().is_punct("["):
            self._next()
            if self._peek().is_punct("]"):
                dims.append(None)
            else:
                dims.append(self._parse_assignment_expr())
            self._expect_punct("]")
        var_type = TypeSpec(
            base=base.base,
            pointers=base.pointers + pointers,
            array_dims=dims,
            qualifiers=base.qualifiers | quals,
        )
        return var_type, name, tok_i

    # -- statements ---------------------------------------------------------------

    def _parse_statement(self) -> Stmt:
        pragmas = self._collect_pragmas()
        stmt = self._parse_statement_inner()
        if pragmas:
            stmt.pragmas = pragmas + stmt.pragmas
        return stmt

    def _parse_statement_inner(self) -> Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do()
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("case"):
            self._next()
            value = self._parse_conditional_expr()
            self._expect_punct(":")
            inner = None
            if not self._peek().is_punct("}"):
                inner = self._parse_statement()
            return CaseStmt(value=value, stmt=inner)
        if tok.is_keyword("default"):
            self._next()
            self._expect_punct(":")
            inner = None
            if not self._peek().is_punct("}"):
                inner = self._parse_statement()
            return DefaultStmt(stmt=inner)
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expr()
            self._expect_punct(";")
            return ReturnStmt(value=value)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return BreakStmt()
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ContinueStmt()
        if tok.is_keyword("goto"):
            self._next()
            label = self._expect_ident().text
            self._expect_punct(";")
            return GotoStmt(label=label)
        if tok.is_punct(";"):
            self._next()
            return ExprStmt(expr=None)
        if (
            tok.kind is TokenKind.IDENT
            and self._peek(1).is_punct(":")
            and not self._peek(2).is_punct(":")
        ):
            self._next()
            self._next()
            return LabelStmt(name=tok.text, stmt=self._parse_statement())
        if self._starts_declaration():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect_punct(";")
        return ExprStmt(expr=expr)

    def _parse_compound(self) -> CompoundStmt:
        self._expect_punct("{")
        stmts: list[Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                tok = self._peek()
                raise ParseError("unterminated compound statement", tok.line, tok.col)
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return CompoundStmt(stmts=stmts)

    def _parse_decl_stmt(self) -> DeclStmt:
        base, quals = self._parse_decl_specifiers()
        # Function-local struct/enum definitions are recorded only through
        # the type name; drop the pending tag node so it cannot leak into a
        # later external declaration.
        self._pending_tag_decls.clear()
        decls: list[VarDecl] = []
        while True:
            var_type, name, tok_i = self._parse_declarator(base, quals)
            decls.append(self._finish_var_decl(var_type, name, tok_i))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return DeclStmt(decls=decls)

    def _parse_if(self) -> IfStmt:
        self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_statement()
        els = None
        if self._peek().is_keyword("else"):
            self._next()
            els = self._parse_statement()
        return IfStmt(cond=cond, then=then, els=els)

    def _parse_for(self) -> ForStmt:
        self._next()
        self._expect_punct("(")
        init: Stmt | None = None
        if not self._accept_punct(";"):
            if self._starts_declaration():
                init = self._parse_decl_stmt()
            else:
                expr = self._parse_expr()
                self._expect_punct(";")
                init = ExprStmt(expr=expr)
        cond: Expr | None = None
        if not self._peek().is_punct(";"):
            cond = self._parse_expr()
        self._expect_punct(";")
        inc: Expr | None = None
        if not self._peek().is_punct(")"):
            inc = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_statement()
        return ForStmt(init=init, cond=cond, inc=inc, body=body)

    def _parse_while(self) -> WhileStmt:
        self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_statement()
        return WhileStmt(cond=cond, body=body)

    def _parse_do(self) -> DoStmt:
        self._next()
        body = self._parse_statement()
        tok = self._peek()
        if not tok.is_keyword("while"):
            raise ParseError("expected 'while' after do-body", tok.line, tok.col)
        self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoStmt(body=body, cond=cond)

    def _parse_switch(self) -> SwitchStmt:
        self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_statement()
        return SwitchStmt(cond=cond, body=body)

    # -- expressions ----------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        """Full expression including the comma operator."""
        expr = self._parse_assignment_expr()
        while self._peek().is_punct(","):
            self._next()
            rhs = self._parse_assignment_expr()
            expr = BinaryOperator(op=",", lhs=expr, rhs=rhs)
        return expr

    def _parse_assignment_expr(self) -> Expr:
        lhs = self._parse_conditional_expr()
        tok = self._peek()
        if tok.is_punct("=") or (
            tok.kind is TokenKind.PUNCT and tok.text in COMPOUND_ASSIGN_OPS
        ):
            op = self._next().text
            rhs = self._parse_assignment_expr()  # right-associative
            return BinaryOperator(op=op, lhs=lhs, rhs=rhs)
        return lhs

    def _parse_conditional_expr(self) -> Expr:
        cond = self._parse_binary_expr(1)
        if self._accept_punct("?"):
            then = self._parse_expr()
            self._expect_punct(":")
            els = self._parse_conditional_expr()
            return ConditionalOperator(cond=cond, then=then, els=els)
        return cond

    def _parse_binary_expr(self, min_prec: int) -> Expr:
        lhs = self._parse_cast_expr()
        while True:
            tok = self._peek()
            if tok.kind is not TokenKind.PUNCT:
                return lhs
            prec = _BINOP_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return lhs
            op = self._next().text
            rhs = self._parse_binary_expr(prec + 1)
            lhs = BinaryOperator(op=op, lhs=lhs, rhs=rhs)

    def _is_type_name_ahead(self) -> bool:
        """True when the token after an open paren begins a type name."""
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and (
            tok.text in _TYPE_SPECIFIERS or tok.text in ("const", "volatile")
        ):
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self.typedefs

    def _parse_type_name(self) -> TypeSpec:
        base, quals = self._parse_decl_specifiers()
        var_type, _, _ = self._parse_declarator(base, quals, allow_abstract=True)
        return var_type

    def _parse_cast_expr(self) -> Expr:
        if self._peek().is_punct("("):
            save = self.pos
            self._next()
            if self._is_type_name_ahead():
                to_type = self._parse_type_name()
                if self._peek().is_punct(")"):
                    self._next()
                    # ``(int){...}`` compound literals are not supported;
                    # treat what follows as the cast operand.
                    operand = self._parse_cast_expr()
                    return CastExpr(to_type=to_type, operand=operand)
            self.pos = save
        return self._parse_unary_expr()

    def _parse_unary_expr(self) -> Expr:
        tok = self._peek()
        if tok.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("("):
                save = self.pos
                self._next()
                if self._is_type_name_ahead():
                    arg: Node = self._parse_type_name()
                    self._expect_punct(")")
                    return SizeofExpr(arg=arg)
                self.pos = save
            return SizeofExpr(arg=self._parse_unary_expr())
        if tok.kind is TokenKind.PUNCT and tok.text in _UNARY_PREFIX_OPS:
            op = self._next().text
            operand = self._parse_cast_expr()
            return UnaryOperator(op=op, operand=operand, prefix=True)
        return self._parse_postfix_expr()

    def _parse_postfix_expr(self) -> Expr:
        expr = self._parse_primary_expr()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._next()
                index = self._parse_expr()
                self._expect_punct("]")
                expr = ArraySubscriptExpr(base=expr, index=index)
            elif tok.is_punct("("):
                self._next()
                args: list[Expr] = []
                while not self._peek().is_punct(")"):
                    args.append(self._parse_assignment_expr())
                    if not self._accept_punct(","):
                        break
                self._expect_punct(")")
                expr = CallExpr(callee=expr, args=args)
            elif tok.is_punct("."):
                self._next()
                member = self._expect_ident().text
                expr = MemberExpr(base=expr, member=member, is_arrow=False)
            elif tok.is_punct("->"):
                self._next()
                member = self._expect_ident().text
                expr = MemberExpr(base=expr, member=member, is_arrow=True)
            elif tok.is_punct("++", "--"):
                op = self._next().text
                expr = UnaryOperator(op=op, operand=expr, prefix=False)
            else:
                return expr

    def _parse_primary_expr(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_CONST:
            self._next()
            return IntegerLiteral(text=tok.text, tok_i=tok.index)
        if tok.kind is TokenKind.FLOAT_CONST:
            self._next()
            return FloatingLiteral(text=tok.text, tok_i=tok.index)
        if tok.kind is TokenKind.CHAR_CONST:
            self._next()
            return CharLiteral(text=tok.text, tok_i=tok.index)
        if tok.kind is TokenKind.STRING:
            self._next()
            # Adjacent string literals concatenate.
            text = tok.text
            while self._peek().kind is TokenKind.STRING:
                text = text[:-1] + self._next().text[1:]
            return StringLiteral(text=text, tok_i=tok.index)
        if tok.kind is TokenKind.IDENT:
            self._next()
            return DeclRefExpr(name=tok.text, tok_i=tok.index)
        if tok.is_punct("("):
            self._next()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_source(source: str) -> TranslationUnit:
    """Parse a complete C source file into a :class:`TranslationUnit`."""
    tokens = Lexer(source).lex().tokens
    return Parser(tokens).parse_translation_unit()


def parse_statements(source: str) -> CompoundStmt:
    """Parse a bare statement sequence (no enclosing function needed)."""
    tokens = Lexer("{" + source + "\n}").lex().tokens
    parser = Parser(tokens)
    block = parser._parse_compound()
    eof = parser._peek()
    if eof.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input {eof.text!r}", eof.line, eof.col)
    return block


def parse_loop(source: str) -> Stmt:
    """Parse a snippet and return the first loop statement in it.

    Convenience for tests, examples, and the dataset loop extractor: the
    snippet may contain leading declarations and trailing statements.
    """
    from repro.cfront.nodes import loops_of

    block = parse_statements(source)
    loops = loops_of(block)
    if not loops:
        raise ParseError("no loop found in snippet")
    return loops[0]
