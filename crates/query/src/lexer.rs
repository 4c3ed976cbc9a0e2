//! Tokenizer for the EmptyHeaded query language.

use std::fmt;

/// Lexical tokens.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier (relation or variable name).
    Ident(String),
    /// Integer literal: its exact value, never rounded through `f64`.
    Int(u64),
    /// Decimal literal.
    Number(f64),
    /// Quoted string constant (single or double quotes).
    Str(String),
    /// `:-`
    Implies,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `<<`
    AggOpen,
    /// `>>`
    AggClose,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Implies => write!(f, ":-"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Colon => write!(f, ":"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::AggOpen => write!(f, "<<"),
            Token::AggClose => write!(f, ">>"),
        }
    }
}

/// Streaming lexer over query text.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// New lexer over source text.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenize everything, reporting the byte offset of any error.
    pub fn tokenize(mut self) -> Result<Vec<Token>, (usize, String)> {
        let mut out = Vec::new();
        while let Some(tok) = self.next_token()? {
            out.push(tok);
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn next_token(&mut self) -> Result<Option<Token>, (usize, String)> {
        // Skip whitespace and `#` / `//` comments.
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let start = self.pos;
        let Some(c) = self.bump() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'[' => Token::LBracket,
            b']' => Token::RBracket,
            b',' => Token::Comma,
            b';' => Token::Semicolon,
            b'.' => Token::Dot,
            b'*' => Token::Star,
            b'=' => Token::Eq,
            b'+' => Token::Plus,
            b'-' => Token::Minus,
            b'/' => Token::Slash,
            b':' => {
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                    Token::Implies
                } else {
                    Token::Colon
                }
            }
            b'<' => {
                if self.peek() == Some(b'<') {
                    self.pos += 1;
                    Token::AggOpen
                } else {
                    return Err((start, "expected '<<'".into()));
                }
            }
            b'>' => {
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    Token::AggClose
                } else {
                    return Err((start, "expected '>>'".into()));
                }
            }
            b'\'' | b'"' => {
                // The text between the quotes, as written: the quotes are
                // ASCII, so the slice ends on UTF-8 boundaries.
                let Some(len) = self.src[self.pos..].iter().position(|&ch| ch == c) else {
                    return Err((start, "unterminated string".into()));
                };
                let text = std::str::from_utf8(&self.src[self.pos..self.pos + len]).unwrap();
                self.pos += len + 1;
                Token::Str(text.to_string())
            }
            c if c.is_ascii_digit() => {
                let mut end = self.pos;
                while let Some(ch) = self.src.get(end) {
                    if ch.is_ascii_digit() || *ch == b'.' {
                        // Don't swallow the rule-terminating dot: a dot is
                        // part of the number only if followed by a digit.
                        if *ch == b'.' && !self.src.get(end + 1).is_some_and(|d| d.is_ascii_digit())
                        {
                            break;
                        }
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..end]).unwrap();
                self.pos = end;
                let tok = if text.contains('.') {
                    text.parse().map(Token::Number).map_err(|e| e.to_string())
                } else {
                    text.parse().map(Token::Int).map_err(|e| e.to_string())
                };
                tok.map_err(|e| (start, format!("bad number {text}: {e}")))?
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = self.pos;
                while let Some(ch) = self.src.get(end) {
                    if ch.is_ascii_alphanumeric() || *ch == b'_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..end]).unwrap();
                self.pos = end;
                Token::Ident(text.to_string())
            }
            other => {
                return Err((start, format!("unexpected character '{}'", other as char)));
            }
        };
        Ok(Some(tok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().unwrap()
    }

    #[test]
    fn simple_rule() {
        let toks = lex("T(x,y) :- R(x,y).");
        assert_eq!(
            toks,
            vec![
                Token::Ident("T".into()),
                Token::LParen,
                Token::Ident("x".into()),
                Token::Comma,
                Token::Ident("y".into()),
                Token::RParen,
                Token::Implies,
                Token::Ident("R".into()),
                Token::LParen,
                Token::Ident("x".into()),
                Token::Comma,
                Token::Ident("y".into()),
                Token::RParen,
                Token::Dot,
            ]
        );
    }

    #[test]
    fn agg_tokens() {
        let toks = lex("w=<<COUNT(*)>>");
        assert_eq!(
            toks,
            vec![
                Token::Ident("w".into()),
                Token::Eq,
                Token::AggOpen,
                Token::Ident("COUNT".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
                Token::AggClose,
            ]
        );
    }

    #[test]
    fn numbers_vs_rule_dot() {
        let toks = lex("y=0.15+0.85*z.");
        assert!(matches!(toks[2], Token::Number(n) if (n - 0.15).abs() < 1e-12));
        assert!(matches!(toks[4], Token::Number(n) if (n - 0.85).abs() < 1e-12));
        assert_eq!(*toks.last().unwrap(), Token::Dot);
        // integer followed by terminating dot:
        let toks = lex("y=1.");
        assert_eq!(toks[2], Token::Int(1));
        assert_eq!(*toks.last().unwrap(), Token::Dot);
        // integers keep their exact u64 value:
        assert_eq!(lex("9007199254740993"), vec![Token::Int(9007199254740993)]);
        assert_eq!(lex("007"), vec![Token::Int(7)]);
        assert_eq!(lex("18446744073709551615"), vec![Token::Int(u64::MAX)]);
        assert!(Lexer::new("18446744073709551616").tokenize().is_err());
    }

    #[test]
    fn strings_both_quotes() {
        assert_eq!(lex("'abc'"), vec![Token::Str("abc".into())]);
        assert_eq!(lex("\"abc\""), vec![Token::Str("abc".into())]);
    }

    #[test]
    fn strings_keep_non_ascii_text() {
        assert_eq!(lex("'café'"), vec![Token::Str("café".into())]);
        assert_eq!(lex("\"日本 ü\""), vec![Token::Str("日本 ü".into())]);
        assert!(Lexer::new("'café").tokenize().is_err());
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("# header\nT(x) :- R(x). // trailing");
        assert_eq!(toks.len(), 10);
    }

    #[test]
    fn recursion_annotation() {
        let toks = lex("P(x;y:float)*[i=5]");
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::LBracket));
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("T(x) :- R(x)?").tokenize().is_err());
        assert!(Lexer::new("'unterminated").tokenize().is_err());
        assert!(Lexer::new("a < b").tokenize().is_err());
    }
}
