//! Tokenizer for the mini-Scheme surface syntax.

use std::fmt;

/// The kind of a lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `(` or `[`
    LParen,
    /// `)` or `]`
    RParen,
    /// `#(`
    VecOpen,
    /// `'`
    Quote,
    /// `` ` ``
    Quasiquote,
    /// `,`
    Unquote,
    /// `.` used in dotted pairs
    Dot,
    /// An integer literal.
    Fixnum(i64),
    /// `#t` / `#f`
    Bool(bool),
    /// A character literal.
    Char(char),
    /// A string literal (unescaped contents).
    Str(String),
    /// A symbol.
    Symbol(String),
}

/// A token together with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was recognized.
    pub kind: TokenKind,
    /// Byte offset of the first character of the token.
    pub offset: usize,
    /// 1-based line number for diagnostics.
    pub line: usize,
}

/// A lexical error: unexpected character, bad literal, or unterminated
/// string.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// An iterator producing [`Token`]s from source text.
///
/// # Examples
///
/// ```
/// use lesgs_sexpr::{Lexer, TokenKind};
///
/// let toks: Vec<_> = Lexer::new("(add 1)").collect::<Result<_, _>>().unwrap();
/// assert_eq!(toks[0].kind, TokenKind::LParen);
/// assert_eq!(toks[1].kind, TokenKind::Symbol("add".into()));
/// assert_eq!(toks[2].kind, TokenKind::Fixnum(1));
/// ```
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

fn is_delimiter(b: u8) -> bool {
    b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';')
}

fn is_symbol_char(b: u8) -> bool {
    !is_delimiter(b) && !matches!(b, b'\'' | b'`' | b',')
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
        }
    }

    fn take_symbol_text(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if !is_symbol_char(b) {
                break;
            }
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn lex_string(&mut self) -> Result<TokenKind, LexError> {
        // Copy the source between escapes as `&str` slices so multi-byte
        // UTF-8 characters survive; `"` and `\\` are ASCII, so every cut
        // falls on a character boundary.
        let mut out = String::new();
        let mut start = self.pos;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => {
                    out.push_str(&self.src[start..self.pos - 1]);
                    return Ok(TokenKind::Str(out));
                }
                Some(b'\\') => {
                    out.push_str(&self.src[start..self.pos - 1]);
                    match self.bump() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(c) => {
                            return Err(self.err(format!("unknown string escape `\\{}`", c as char)))
                        }
                        None => return Err(self.err("unterminated string escape")),
                    }
                    start = self.pos;
                }
                Some(_) => {}
            }
        }
    }

    fn lex_hash(&mut self) -> Result<TokenKind, LexError> {
        match self.bump() {
            Some(b't') => Ok(TokenKind::Bool(true)),
            Some(b'f') => Ok(TokenKind::Bool(false)),
            Some(b'(') => Ok(TokenKind::VecOpen),
            Some(b'\\') => {
                let text = self.take_symbol_text();
                match text {
                    "space" => Ok(TokenKind::Char(' ')),
                    "newline" => Ok(TokenKind::Char('\n')),
                    "tab" => Ok(TokenKind::Char('\t')),
                    t if t.chars().count() == 1 => {
                        Ok(TokenKind::Char(t.chars().next().expect("one char")))
                    }
                    // `#\(` and friends: the delimiter is not part of a
                    // symbol, so take one raw byte.
                    "" => match self.bump() {
                        Some(b) => Ok(TokenKind::Char(b as char)),
                        None => Err(self.err("unterminated character literal")),
                    },
                    t => Err(self.err(format!("unknown character name `{t}`"))),
                }
            }
            other => Err(self.err(format!("unknown `#` syntax: {other:?}"))),
        }
    }

    fn lex_atom(&mut self) -> Result<TokenKind, LexError> {
        let text = self.take_symbol_text();
        debug_assert!(!text.is_empty());
        if text == "." {
            return Ok(TokenKind::Dot);
        }
        let digits = text.strip_prefix(['-', '+']).unwrap_or(text);
        let numeric = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
        if numeric {
            text.parse::<i64>()
                .map(TokenKind::Fixnum)
                .map_err(|_| self.err(format!("bad number literal `{text}`")))
        } else {
            Ok(TokenKind::Symbol(text.to_owned()))
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.skip_trivia();
        let offset = self.pos;
        let line = self.line;
        let b = self.peek()?;
        let kind = match b {
            b'(' | b'[' => {
                self.bump();
                Ok(TokenKind::LParen)
            }
            b')' | b']' => {
                self.bump();
                Ok(TokenKind::RParen)
            }
            b'\'' => {
                self.bump();
                Ok(TokenKind::Quote)
            }
            b'`' => {
                self.bump();
                Ok(TokenKind::Quasiquote)
            }
            b',' => {
                self.bump();
                Ok(TokenKind::Unquote)
            }
            b'"' => {
                self.bump();
                self.lex_string()
            }
            b'#' => {
                self.bump();
                self.lex_hash()
            }
            _ => self.lex_atom(),
        };
        Some(kind.map(|kind| Token { kind, offset, line }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn numbers_and_symbols() {
        assert_eq!(
            kinds("x -12 +34 - + 1+"),
            vec![
                TokenKind::Symbol("x".into()),
                TokenKind::Fixnum(-12),
                TokenKind::Fixnum(34),
                TokenKind::Symbol("-".into()),
                TokenKind::Symbol("+".into()),
                TokenKind::Symbol("1+".into()),
            ]
        );
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            kinds("()[]'`, ."),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Quote,
                TokenKind::Quasiquote,
                TokenKind::Unquote,
                TokenKind::Dot,
            ]
        );
    }

    #[test]
    fn hash_syntax() {
        assert_eq!(
            kinds("#t #f #(1) #\\a #\\space"),
            vec![
                TokenKind::Bool(true),
                TokenKind::Bool(false),
                TokenKind::VecOpen,
                TokenKind::Fixnum(1),
                TokenKind::RParen,
                TokenKind::Char('a'),
                TokenKind::Char(' '),
            ]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#""a\nb" "q\"q""#),
            vec![TokenKind::Str("a\nb".into()), TokenKind::Str("q\"q".into()),]
        );
    }

    #[test]
    fn strings_keep_utf8_characters() {
        assert_eq!(
            kinds(r#""héllo" "λ\n→" "日本""#),
            vec![
                TokenKind::Str("héllo".into()),
                TokenKind::Str("λ\n→".into()),
                TokenKind::Str("日本".into()),
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks: Vec<_> = Lexer::new("a ; hi\nb")
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn bad_inputs() {
        assert!(Lexer::new("\"abc").next().unwrap().is_err());
        assert!(Lexer::new("#q").next().unwrap().is_err());
        // An out-of-range fixnum is a lex error, not a symbol.
        assert!(Lexer::new("99999999999999999999").next().unwrap().is_err());
        // Digit-leading symbols such as `1+` are allowed.
        assert_eq!(kinds("1+"), vec![TokenKind::Symbol("1+".into())]);
    }
}
