"""SQL tokenizer.

A hand-written scanner producing the token stream consumed by the recursive
descent parser.  The only MonetDB-specific piece is the handling of
``LANGUAGE PYTHON { ... }`` function bodies: the text between the braces is
*not* SQL and is captured verbatim (it is Python source, see paper Listing 1),
so the lexer exposes :func:`scan_braced_block` for the parser to call when it
reaches the opening ``{`` of a CREATE FUNCTION body.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    EOF = "EOF"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC", "DESC",
    "LIMIT", "OFFSET", "DISTINCT", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL",
    "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "EXISTS",
    "CREATE", "OR", "REPLACE", "TABLE", "DROP", "IF", "INSERT", "INTO", "VALUES",
    "DELETE", "UPDATE", "SET", "FUNCTION", "RETURNS", "LANGUAGE", "JOIN", "INNER",
    "LEFT", "RIGHT", "OUTER", "CROSS", "ON", "TRUE", "FALSE", "COPY", "DELIMITERS",
    "HEADER", "UNION", "ALL", "NOT", "EXPLAIN", "ANALYZE", "CHECKPOINT",
    "VERIFY", "BACKUP", "TO", "SHOW", "STATS",
    "PREPARE", "EXECUTE", "DEALLOCATE",
}

_MULTI_CHAR_OPERATORS = ("<>", "<=", ">=", "!=", "||")
_SINGLE_CHAR_OPERATORS = set("+-*/%<>=")
# ``?`` is the positional parameter placeholder of PREPARE/EXECUTE.
_PUNCTUATION = set("(),.;{}?")


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Whether this is one of the keywords ``names`` (upper-case)."""
        return self.type is TokenType.KEYWORD and self.value.upper() in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


class Lexer:
    """Tokenises SQL text on demand."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def tokens(self) -> list[Token]:
        """Tokenise the whole input (stopping at EOF)."""
        result: list[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.text):
            return Token(TokenType.EOF, "", self.pos)
        start = self.pos
        char = self.text[self.pos]

        if char == "'" or char == '"':
            return self._scan_string(char)
        if char.isdigit() or (char == "." and self._peek_is_digit(1)):
            return self._scan_number()
        if char.isalpha() or char == "_":
            return self._scan_word()
        for operator in _MULTI_CHAR_OPERATORS:
            if self.text.startswith(operator, self.pos):
                self.pos += len(operator)
                return Token(TokenType.OPERATOR, operator, start)
        if char in _SINGLE_CHAR_OPERATORS:
            self.pos += 1
            return Token(TokenType.OPERATOR, char, start)
        if char in _PUNCTUATION:
            self.pos += 1
            return Token(TokenType.PUNCTUATION, char, start)
        raise ParseError(f"unexpected character {char!r}", position=start)

    def scan_braced_block(self, open_position: int) -> tuple[str, int]:
        """Capture the raw text of a ``{ ... }`` block starting at ``open_position``.

        Returns ``(body_text, position_after_closing_brace)``.  Braces inside
        Python string literals and nested braces (dict/set displays, f-strings)
        are handled by brace counting with string awareness, which matches how
        MonetDB's SQL scanner captures PyAPI bodies.
        """
        text = self.text
        if text[open_position] != "{":
            raise ParseError("expected '{' to start function body", position=open_position)
        depth = 0
        index = open_position
        in_string: str | None = None
        while index < len(text):
            char = text[index]
            if in_string is not None:
                if char == "\\":
                    index += 2
                    continue
                if char == in_string:
                    in_string = None
                index += 1
                continue
            if char in ("'", '"'):
                in_string = char
                index += 1
                continue
            if char == "#":
                # Python comment: skip to end of line so braces in comments
                # do not unbalance the counter.
                while index < len(text) and text[index] != "\n":
                    index += 1
                continue
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    body = text[open_position + 1:index]
                    return body, index + 1
            index += 1
        raise ParseError("unterminated function body (missing '}')", position=open_position)

    # ------------------------------------------------------------------ #
    # scanners
    # ------------------------------------------------------------------ #
    def _peek_is_digit(self, offset: int) -> bool:
        index = self.pos + offset
        return index < len(self.text) and self.text[index].isdigit()

    def _skip_whitespace_and_comments(self) -> None:
        text = self.text
        while self.pos < len(text):
            char = text[self.pos]
            if char.isspace():
                self.pos += 1
            elif text.startswith("--", self.pos):
                while self.pos < len(text) and text[self.pos] != "\n":
                    self.pos += 1
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end == -1:
                    raise ParseError("unterminated block comment", position=self.pos)
                self.pos = end + 2
            else:
                return

    def _scan_string(self, quote: str) -> Token:
        start = self.pos
        self.pos += 1
        pieces: list[str] = []
        text = self.text
        while self.pos < len(text):
            char = text[self.pos]
            if char == quote:
                # doubled quote is an escaped quote in SQL
                if self.pos + 1 < len(text) and text[self.pos + 1] == quote:
                    pieces.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return Token(TokenType.STRING, "".join(pieces), start)
            pieces.append(char)
            self.pos += 1
        raise ParseError("unterminated string literal", position=start)

    def _scan_number(self) -> Token:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        return Token(TokenType.NUMBER, text[start:self.pos], start)

    def _scan_word(self) -> Token:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        word = text[start:self.pos]
        if word.upper() in KEYWORDS:
            return Token(TokenType.KEYWORD, word, start)
        return Token(TokenType.IDENTIFIER, word, start)
