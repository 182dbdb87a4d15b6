"""Unit tests for the C lexer."""

import pytest

from repro.cfront.errors import LexError
from repro.cfront.lexer import Lexer, tokenize
from repro.cfront.tokens import Token, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("int foo; for while_loop")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENT
        assert toks[3].kind is TokenKind.KEYWORD
        assert toks[4].kind is TokenKind.IDENT  # while_loop is not a keyword

    def test_identifier_with_digits_and_underscores(self):
        assert texts("_x9 __foo a1b2")[0] == "_x9"
        assert texts("_x9 __foo a1b2") == ["_x9", "__foo", "a1b2"]

    def test_eof_sentinel_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("x")[-1].kind is TokenKind.EOF

    def test_token_indices_are_sequential(self):
        toks = tokenize("a + b * c")
        assert [t.index for t in toks] == list(range(len(toks)))

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)


class TestNumbers:
    def test_decimal_int(self):
        toks = tokenize("42")
        assert toks[0].kind is TokenKind.INT_CONST
        assert toks[0].text == "42"

    def test_hex_and_octal(self):
        assert kinds("0xFF 0755") == [TokenKind.INT_CONST] * 2

    @pytest.mark.parametrize("text", ["09", "08u", "0x", "0XUL"])
    def test_malformed_integer_constant_raises(self, text):
        # refused where they are lexed, so they fail their own file and
        # never reach a reader of the literal's value
        with pytest.raises(LexError, match=f"malformed integer constant '{text}'"):
            tokenize(f"a[i] = {text};")

    def test_int_suffixes(self):
        assert kinds("10u 10UL 10ll") == [TokenKind.INT_CONST] * 3

    def test_float_forms(self):
        for text in ["1.5", "1.", ".5", "1e10", "1.5e-3", "2E+4", "1.0f", "3.14F",
                     "09.5", "09e1"]:
            toks = tokenize(text)
            assert toks[0].kind is TokenKind.FLOAT_CONST, text

    def test_float_suffix_makes_float(self):
        assert tokenize("10f")[0].kind is TokenKind.FLOAT_CONST

    def test_number_at_eof_terminates(self):
        # Regression: "" in "uUlLfF" is True, which once caused a hang.
        toks = tokenize("1024")
        assert toks[0].text == "1024"
        assert toks[-1].kind is TokenKind.EOF

    def test_dot_not_followed_by_digit_is_punct(self):
        assert texts("a.b") == ["a", ".", "b"]

    def test_ellipsis_vs_member_dot(self):
        assert "..." in texts("f(int x, ...)")


class TestStringsAndChars:
    def test_simple_string(self):
        toks = tokenize('"hello"')
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].text == '"hello"'

    def test_string_with_escapes(self):
        assert tokenize(r'"a\"b\n"')[0].text == r'"a\"b\n"'

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_char_literals(self):
        assert tokenize("'x'")[0].kind is TokenKind.CHAR_CONST
        assert tokenize(r"'\n'")[0].kind is TokenKind.CHAR_CONST

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab")


class TestComments:
    def test_line_comment_dropped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_dropped(self):
        assert texts("a /* many\n lines */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_comment_inside_pragma_line(self):
        toks = tokenize("#pragma omp parallel for /* note */\nx;")
        assert toks[0].kind is TokenKind.PRAGMA


class TestPunctuators:
    def test_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a<<b") == ["a", "<<", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a--") == ["a", "--"]

    def test_all_compound_assigns(self):
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="]:
            assert op in texts(f"x {op} 1")

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestPreprocessor:
    def test_pragma_becomes_token(self):
        toks = tokenize("#pragma omp parallel for\nfor(;;);")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].text == "pragma omp parallel for"

    def test_include_recorded_not_tokenized(self):
        result = Lexer('#include <stdio.h>\nint x;').lex()
        assert result.includes == ["include <stdio.h>"]
        assert result.tokens[0].is_keyword("int")

    def test_simple_define_substituted(self):
        toks = tokenize("#define N 1024\nint a[N];")
        assert any(t.text == "1024" and t.kind is TokenKind.INT_CONST for t in toks)
        assert not any(t.text == "N" for t in toks)

    def test_function_like_define_not_substituted(self):
        toks = tokenize("#define SQR(x) ((x)*(x))\nint y = SQR(3);")
        assert any(t.text == "SQR" for t in toks)

    def test_multi_token_define_left_alone(self):
        toks = tokenize("#define EXPR a + b\nint y = EXPR;")
        assert any(t.text == "EXPR" for t in toks)

    def test_line_splicing(self):
        assert texts("a\\\nb") == ["ab"]

    def test_define_records_value(self):
        result = Lexer("#define LIMIT 500\n").lex()
        assert result.defines == {"LIMIT": "500"}

    def test_ifdef_lines_dropped(self):
        assert texts("#ifdef FOO\nint x;\n#endif") == ["int", "x", ";"]


class TestTokenHelpers:
    def test_is_punct(self):
        tok = Token(TokenKind.PUNCT, "+")
        assert tok.is_punct("+", "-")
        assert not tok.is_punct("-")

    def test_is_keyword(self):
        tok = Token(TokenKind.KEYWORD, "for")
        assert tok.is_keyword("for", "while")
        assert not tok.is_keyword("while")

    def test_ident_is_not_punct(self):
        assert not Token(TokenKind.IDENT, "+").is_punct("+")
