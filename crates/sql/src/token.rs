//! Token model for the SQL lexer.

use std::fmt;

/// SQL keywords recognized by PixelsDB. Matching is case-insensitive; any
/// identifier not in this list lexes as [`TokenKind::Ident`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Offset,
    Asc,
    Desc,
    As,
    And,
    Or,
    Not,
    In,
    Is,
    Null,
    Like,
    Between,
    Case,
    When,
    Then,
    Else,
    End,
    Cast,
    True,
    False,
    Join,
    Inner,
    Left,
    Right,
    Outer,
    Cross,
    On,
    Explain,
    Show,
    Tables,
    Databases,
    Describe,
    Date,
    Timestamp,
    Interval,
    Extract,
    Year,
    Month,
    Day,
}

impl Keyword {
    /// Parse a keyword from an identifier, case-insensitively.
    pub fn parse(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s.to_ascii_uppercase().as_str() {
            "SELECT" => Select,
            "DISTINCT" => Distinct,
            "FROM" => From,
            "WHERE" => Where,
            "GROUP" => Group,
            "BY" => By,
            "HAVING" => Having,
            "ORDER" => Order,
            "LIMIT" => Limit,
            "OFFSET" => Offset,
            "ASC" => Asc,
            "DESC" => Desc,
            "AS" => As,
            "AND" => And,
            "OR" => Or,
            "NOT" => Not,
            "IN" => In,
            "IS" => Is,
            "NULL" => Null,
            "LIKE" => Like,
            "BETWEEN" => Between,
            "CASE" => Case,
            "WHEN" => When,
            "THEN" => Then,
            "ELSE" => Else,
            "END" => End,
            "CAST" => Cast,
            "TRUE" => True,
            "FALSE" => False,
            "JOIN" => Join,
            "INNER" => Inner,
            "LEFT" => Left,
            "RIGHT" => Right,
            "OUTER" => Outer,
            "CROSS" => Cross,
            "ON" => On,
            "EXPLAIN" => Explain,
            "SHOW" => Show,
            "TABLES" => Tables,
            "DATABASES" => Databases,
            "DESCRIBE" | "DESC_TABLE" => Describe,
            "DATE" => Date,
            "TIMESTAMP" => Timestamp,
            "INTERVAL" => Interval,
            "EXTRACT" => Extract,
            "YEAR" => Year,
            "MONTH" => Month,
            "DAY" => Day,
            _ => return None,
        })
    }
}

/// One lexed token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset in the source text.
    pub offset: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Keyword(Keyword),
    /// Unquoted identifier (original case preserved).
    Ident(String),
    /// Numeric literal text (integer or decimal; parsed later).
    Number(String),
    /// Single-quoted string literal with escapes resolved.
    String(String),
    Comma,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Dot,
    Semicolon,
    /// String concatenation `||`.
    Concat,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "identifier {s:?}"),
            TokenKind::Number(s) => write!(f, "number {s}"),
            TokenKind::String(s) => write!(f, "string {s:?}"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::Star => f.write_str("'*'"),
            TokenKind::Plus => f.write_str("'+'"),
            TokenKind::Minus => f.write_str("'-'"),
            TokenKind::Slash => f.write_str("'/'"),
            TokenKind::Percent => f.write_str("'%'"),
            TokenKind::Eq => f.write_str("'='"),
            TokenKind::NotEq => f.write_str("'<>'"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::LtEq => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::GtEq => f.write_str("'>='"),
            TokenKind::Dot => f.write_str("'.'"),
            TokenKind::Semicolon => f.write_str("';'"),
            TokenKind::Concat => f.write_str("'||'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::parse("select"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("lineitem"), None);
    }

    #[test]
    fn display_is_helpful() {
        assert_eq!(TokenKind::Comma.to_string(), "','");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "identifier \"x\"");
    }
}
