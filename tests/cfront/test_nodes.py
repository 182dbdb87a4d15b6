"""Unit tests for AST node helpers and TypeSpec."""

from repro.cfront import parse_statements, parse_loop
from repro.cfront.nodes import (
    ArraySubscriptExpr,
    CallExpr,
    CharLiteral,
    DeclRefExpr,
    FloatingLiteral,
    ForStmt,
    IntegerLiteral,
    LOOP_KINDS,
    TypeSpec,
    loops_of,
)


def expr_of(src):
    return parse_statements(src + ";").stmts[0].expr


class TestLiterals:
    def test_int_value_decimal(self):
        assert IntegerLiteral(text="42").value == 42

    def test_int_value_hex(self):
        assert IntegerLiteral(text="0xFF").value == 255

    def test_int_value_octal(self):
        # C reads a leading zero as octal; Python's int(text, 0)
        # refuses it outright
        assert [IntegerLiteral(text=t).value
                for t in ("010", "0644", "077L", "0777u", "0", "00")] \
            == [8, 420, 63, 511, 0, 0]

    def test_int_value_suffixes(self):
        assert IntegerLiteral(text="10UL").value == 10
        assert IntegerLiteral(text="7u").value == 7

    def test_float_value(self):
        assert FloatingLiteral(text="2.5f").value == 2.5
        assert FloatingLiteral(text="1e3").value == 1000.0

    def test_char_value(self):
        assert CharLiteral(text="'A'").value == ord("A")
        assert CharLiteral(text=r"'\n'").value == ord("\n")
        assert CharLiteral(text=r"'\0'").value == 0


class TestOperatorHelpers:
    def test_assignment_detection(self):
        assert expr_of("x = 1").is_assignment
        assert expr_of("x += 1").is_compound_assignment
        assert not expr_of("x + 1").is_assignment

    def test_incdec_detection(self):
        assert expr_of("x++").is_incdec
        assert expr_of("--x").is_incdec
        assert not expr_of("-x").is_incdec

    def test_call_name(self):
        call = expr_of("f(1, 2)")
        assert isinstance(call, CallExpr)
        assert call.name == "f"

    def test_indirect_call_has_no_name(self):
        call = expr_of("(*fp)(1)")
        assert isinstance(call, CallExpr)
        assert call.name == ""


class TestTypeSpec:
    def test_str_rendering(self):
        t = TypeSpec(base="double", pointers=2)
        assert str(t) == "double**"

    def test_qualifiers_in_str(self):
        t = TypeSpec(base="int", qualifiers=frozenset({"const"}))
        assert "const" in str(t)

    def test_is_array_and_pointer(self):
        assert TypeSpec(base="int", array_dims=[None]).is_array
        assert TypeSpec(base="int", pointers=1).is_pointer
        assert not TypeSpec(base="int").is_array

    def test_is_floating(self):
        assert TypeSpec(base="double").is_floating
        assert TypeSpec(base="float").is_floating
        assert not TypeSpec(base="unsigned int").is_floating
        assert TypeSpec(base="long double").is_floating


class TestTraversalHelpers:
    def test_loops_of_finds_all_kinds(self):
        block = parse_statements(
            "for (i = 0; i < 3; i++) x++;\n"
            "while (x) x--;\n"
            "do x++; while (x < 5);"
        )
        loops = loops_of(block)
        assert len(loops) == 3
        assert {l.kind for l in loops} == {"ForStmt", "WhileStmt", "DoStmt"}

    def test_loops_of_includes_nested(self):
        loop = parse_loop("for (i = 0; i < 3; i++) for (j = 0; j < 3; j++) x++;")
        assert len(loops_of(loop)) == 2

    def test_find_all_with_multiple_kinds(self):
        loop = parse_loop("for (i = 0; i < n; i++) a[i] = f(b[i]);")
        found = list(loop.find_all(ArraySubscriptExpr, CallExpr))
        kinds = {n.kind for n in found}
        assert kinds == {"ArraySubscriptExpr", "CallExpr"}

    def test_kind_property_matches_class_name(self):
        loop = parse_loop("for (;;) break;")
        assert loop.kind == "ForStmt"
        assert isinstance(loop, LOOP_KINDS)

    def test_tok_i_set_on_leaves(self):
        loop = parse_loop("for (i = 0; i < n; i++) s += a[i];")
        refs = list(loop.find_all(DeclRefExpr))
        assert all(r.tok_i >= 0 for r in refs)
        # token order is strictly increasing along source order
        tok_is = [r.tok_i for r in refs]
        assert tok_is == sorted(tok_is)
