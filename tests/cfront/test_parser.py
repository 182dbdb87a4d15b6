"""Unit tests for the C parser."""

import pytest

from repro.cfront import (
    ArraySubscriptExpr,
    BinaryOperator,
    BreakStmt,
    CallExpr,
    CastExpr,
    ConditionalOperator,
    ContinueStmt,
    DeclRefExpr,
    DeclStmt,
    DoStmt,
    ExprStmt,
    FloatingLiteral,
    ForStmt,
    GotoStmt,
    IfStmt,
    LabelStmt,
    MemberExpr,
    ParseError,
    SizeofExpr,
    SwitchStmt,
    TypedefDecl,
    UnaryOperator,
    VarDecl,
    WhileStmt,
    parse_loop,
    parse_source,
    parse_statements,
)


def first_stmt(source):
    return parse_statements(source).stmts[0]


def expr_of(source):
    stmt = first_stmt(source + ";")
    assert isinstance(stmt, ExprStmt)
    return stmt.expr


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = expr_of("a + b * c")
        assert isinstance(e, BinaryOperator) and e.op == "+"
        assert isinstance(e.rhs, BinaryOperator) and e.rhs.op == "*"

    def test_parens_override_precedence(self):
        e = expr_of("(a + b) * c")
        assert e.op == "*"
        assert isinstance(e.lhs, BinaryOperator) and e.lhs.op == "+"

    def test_left_associativity(self):
        e = expr_of("a - b - c")
        assert e.op == "-"
        assert isinstance(e.lhs, BinaryOperator) and e.lhs.op == "-"
        assert isinstance(e.rhs, DeclRefExpr) and e.rhs.name == "c"

    def test_assignment_right_associative(self):
        e = expr_of("a = b = c")
        assert e.op == "="
        assert isinstance(e.rhs, BinaryOperator) and e.rhs.op == "="

    def test_compound_assignment(self):
        e = expr_of("x += y * 2")
        assert e.is_assignment and e.is_compound_assignment
        assert e.op == "+="

    def test_plain_assignment_not_compound(self):
        e = expr_of("x = y")
        assert e.is_assignment and not e.is_compound_assignment

    def test_ternary(self):
        e = expr_of("a ? b : c")
        assert isinstance(e, ConditionalOperator)

    def test_nested_ternary_right_assoc(self):
        e = expr_of("a ? b : c ? d : e")
        assert isinstance(e.els, ConditionalOperator)

    def test_comma_operator(self):
        e = expr_of("a = 1, b = 2")
        assert e.op == ","

    def test_logical_and_or_precedence(self):
        e = expr_of("a || b && c")
        assert e.op == "||"
        assert e.rhs.op == "&&"

    def test_relational_chain(self):
        e = expr_of("a < b == c")
        assert e.op == "=="
        assert e.lhs.op == "<"

    def test_shift_and_bitwise(self):
        e = expr_of("a | b ^ c & d << 2")
        assert e.op == "|"
        assert e.rhs.op == "^"
        assert e.rhs.rhs.op == "&"
        assert e.rhs.rhs.rhs.op == "<<"

    def test_unary_prefix(self):
        e = expr_of("-x")
        assert isinstance(e, UnaryOperator) and e.prefix and e.op == "-"

    def test_prefix_and_postfix_incdec(self):
        pre = expr_of("++i")
        post = expr_of("i++")
        assert pre.prefix and not post.prefix
        assert pre.is_incdec and post.is_incdec

    def test_deref_and_addressof(self):
        e = expr_of("*p = &x")
        assert isinstance(e.lhs, UnaryOperator) and e.lhs.op == "*"
        assert isinstance(e.rhs, UnaryOperator) and e.rhs.op == "&"

    def test_array_subscript_nested(self):
        e = expr_of("a[i][j]")
        assert isinstance(e, ArraySubscriptExpr)
        assert isinstance(e.base, ArraySubscriptExpr)
        assert e.base.base.name == "a"

    def test_call_with_args(self):
        e = expr_of("f(a, b + 1, g())")
        assert isinstance(e, CallExpr)
        assert e.name == "f"
        assert len(e.args) == 3
        assert isinstance(e.args[2], CallExpr)

    def test_call_no_args(self):
        assert expr_of("f()").args == []

    def test_member_dot_and_arrow(self):
        dot = expr_of("s.x")
        arrow = expr_of("p->x")
        assert isinstance(dot, MemberExpr) and not dot.is_arrow
        assert isinstance(arrow, MemberExpr) and arrow.is_arrow

    def test_chained_member_array(self):
        e = expr_of("objetivo[i].r")
        assert isinstance(e, MemberExpr)
        assert isinstance(e.base, ArraySubscriptExpr)

    def test_arrow_then_subscript_then_dot(self):
        e = expr_of("individuo->imagen[i].r")
        assert isinstance(e, MemberExpr) and e.member == "r"
        inner = e.base
        assert isinstance(inner, ArraySubscriptExpr)
        assert isinstance(inner.base, MemberExpr) and inner.base.is_arrow

    def test_cast(self):
        e = expr_of("(double)x")
        assert isinstance(e, CastExpr)
        assert e.to_type.base == "double"

    def test_cast_pointer(self):
        e = expr_of("(char *)p")
        assert isinstance(e, CastExpr)
        assert e.to_type.pointers == 1

    def test_paren_expr_is_not_cast(self):
        e = expr_of("(x) + 1")
        assert isinstance(e, BinaryOperator) and e.op == "+"

    def test_sizeof_type_and_expr(self):
        t = expr_of("sizeof(int)")
        x = expr_of("sizeof(x)")
        assert isinstance(t, SizeofExpr) and t.arg.base == "int"
        assert isinstance(x, SizeofExpr) and isinstance(x.arg, DeclRefExpr)

    def test_literals(self):
        assert expr_of("42").value == 42
        assert expr_of("0x10").value == 16
        assert expr_of("2.5").value == 2.5
        assert isinstance(expr_of("3.0f"), FloatingLiteral)

    def test_string_concatenation(self):
        e = expr_of('"ab" "cd"')
        assert e.text == '"abcd"'

    def test_unexpected_token_raises(self):
        with pytest.raises(ParseError):
            expr_of("a + ;")


class TestStatements:
    def test_compound_collects_statements(self):
        block = parse_statements("x = 1; y = 2; z = 3;")
        assert len(block.stmts) == 3

    def test_null_statement(self):
        stmt = first_stmt(";")
        assert isinstance(stmt, ExprStmt) and stmt.expr is None

    def test_if_else(self):
        stmt = first_stmt("if (a) x = 1; else x = 2;")
        assert isinstance(stmt, IfStmt) and stmt.els is not None

    def test_dangling_else_binds_inner(self):
        stmt = first_stmt("if (a) if (b) x = 1; else x = 2;")
        assert stmt.els is None
        assert isinstance(stmt.then, IfStmt) and stmt.then.els is not None

    def test_for_with_decl_init(self):
        stmt = first_stmt("for (int i = 0; i < n; i++) x += i;")
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, DeclStmt)
        assert stmt.init.decls[0].name == "i"

    def test_for_with_expr_init(self):
        stmt = first_stmt("for (i = 0; i < n; i++) ;")
        assert isinstance(stmt.init, ExprStmt)

    def test_for_empty_clauses(self):
        stmt = first_stmt("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.inc is None

    def test_while(self):
        stmt = first_stmt("while (k < 5000) k++;")
        assert isinstance(stmt, WhileStmt)

    def test_do_while(self):
        stmt = first_stmt("do { x--; } while (x > 0);")
        assert isinstance(stmt, DoStmt)

    def test_do_without_while_raises(self):
        with pytest.raises(ParseError):
            parse_statements("do { x--; } until (x);")

    def test_break_continue(self):
        block = parse_statements("while (1) { if (a) break; continue; }")
        body = block.stmts[0].body
        assert isinstance(body.stmts[0].then, BreakStmt)
        assert isinstance(body.stmts[1], ContinueStmt)

    def test_return_with_and_without_value(self):
        assert first_stmt("return 1 + 2;").value is not None
        assert first_stmt("return;").value is None

    def test_switch_case_default(self):
        stmt = first_stmt(
            "switch (x) { case 1: y = 1; break; default: y = 0; }"
        )
        assert isinstance(stmt, SwitchStmt)

    def test_goto_and_label(self):
        block = parse_statements("again: x++; goto again;")
        assert isinstance(block.stmts[0], LabelStmt)
        assert isinstance(block.stmts[1], GotoStmt)
        assert block.stmts[1].label == "again"

    def test_decl_with_multiple_declarators(self):
        stmt = first_stmt("int x = 1, y, z = 3;")
        assert isinstance(stmt, DeclStmt)
        assert [d.name for d in stmt.decls] == ["x", "y", "z"]
        assert stmt.decls[1].init is None

    def test_array_decl(self):
        stmt = first_stmt("double a[100][200];")
        d = stmt.decls[0]
        assert len(d.var_type.array_dims) == 2
        assert d.var_type.is_array

    def test_pointer_decl(self):
        stmt = first_stmt("float *p;")
        assert stmt.decls[0].var_type.pointers == 1

    def test_unterminated_block_raises(self):
        with pytest.raises(ParseError):
            parse_source("int f() { int x = 1;")


class TestPragmas:
    def test_pragma_attached_to_loop(self):
        block = parse_statements(
            "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;"
        )
        assert block.stmts[0].pragmas == ["pragma omp parallel for"]

    def test_multiple_pragmas_attached_in_order(self):
        block = parse_statements(
            "#pragma omp parallel\n#pragma omp for\nfor (;;) break;"
        )
        assert block.stmts[0].pragmas == ["pragma omp parallel", "pragma omp for"]

    def test_pragma_not_leaked_to_next_statement(self):
        block = parse_statements(
            "#pragma omp parallel for\nfor (;;) break;\nx = 1;"
        )
        assert block.stmts[1].pragmas == []

    def test_non_omp_pragma_still_attached(self):
        block = parse_statements("#pragma unroll(4)\nfor (;;) break;")
        assert block.stmts[0].pragmas == ["pragma unroll(4)"]


class TestDeclarations:
    def test_function_definition(self):
        tu = parse_source("int add(int a, int b) { return a + b; }")
        fn = tu.functions()[0]
        assert fn.name == "add"
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.body is not None

    def test_function_prototype(self):
        tu = parse_source("double fabs(double x);")
        fn = tu.functions()[0]
        assert fn.body is None

    def test_void_param_list(self):
        tu = parse_source("int f(void) { return 0; }")
        assert tu.functions()[0].params == []

    def test_variadic(self):
        tu = parse_source("int printf(const char *fmt, ...);")
        assert tu.functions()[0].is_variadic

    def test_global_variable(self):
        tu = parse_source("static double cache[1024];")
        var = tu.decls[0]
        assert isinstance(var, VarDecl)
        assert "static" in var.var_type.qualifiers

    def test_typedef_registers_name(self):
        tu = parse_source("typedef unsigned long size_t;\nsize_t n;")
        assert isinstance(tu.decls[0], TypedefDecl)
        assert isinstance(tu.decls[1], VarDecl)
        assert tu.decls[1].var_type.base == "size_t"

    def test_struct_definition_and_use(self):
        tu = parse_source(
            "struct point { int x; int y; };\nstruct point origin;"
        )
        var = tu.decls[-1]
        assert var.var_type.base == "struct point"

    def test_typedef_struct(self):
        tu = parse_source("typedef struct point { int x, y; } point_t;\npoint_t p;")
        assert tu.decls[-1].var_type.base == "point_t"

    def test_enum(self):
        tu = parse_source("enum color { RED, GREEN = 2, BLUE };\nint c;")
        assert len(tu.decls) == 2

    def test_function_lookup(self):
        tu = parse_source("int f() { return 1; }\nint g() { return 2; }")
        assert tu.function("g").name == "g"
        assert tu.function("missing") is None

    def test_implicit_int(self):
        tu = parse_source("const x = 3;")
        assert tu.decls[0].var_type.base == "int"


class TestParseLoop:
    def test_returns_first_loop(self):
        loop = parse_loop("int n = 10;\nfor (int i = 0; i < n; i++) s += i;")
        assert isinstance(loop, ForStmt)

    def test_while_loop_snippet(self):
        loop = parse_loop("while (x > 0) x--;")
        assert isinstance(loop, WhileStmt)

    def test_no_loop_raises(self):
        with pytest.raises(ParseError):
            parse_loop("x = 1;")

    def test_free_variables_allowed(self):
        loop = parse_loop("for (i = 0; i < n; i++) a[i] = b[i];")
        names = {n.name for n in loop.find_all(DeclRefExpr)}
        assert {"i", "n", "a", "b"} <= names


class TestNodeTraversal:
    def test_walk_preorder(self):
        loop = parse_loop("for (i = 0; i < 3; i++) x = x + 1;")
        kinds = [n.kind for n in loop.walk()]
        assert kinds[0] == "ForStmt"
        assert "BinaryOperator" in kinds

    def test_children_in_source_order(self):
        loop = parse_loop("for (i = 0; i < 3; i++) x++;")
        child_kinds = [c.kind for c in loop.children()]
        assert child_kinds == ["ExprStmt", "BinaryOperator", "UnaryOperator",
                               "ExprStmt"]

    def test_find_all(self):
        loop = parse_loop("for (i = 0; i < 3; i++) a[i] = f(i);")
        assert len(list(loop.find_all(CallExpr))) == 1
        assert len(list(loop.find_all(ArraySubscriptExpr))) == 1
