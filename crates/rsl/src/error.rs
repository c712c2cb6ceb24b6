//! Error types for the RSL lexer, parsers, and evaluator.

use std::fmt;

/// Byte position inside the source text where an error occurred.
///
/// Positions are zero-based byte offsets; `line` and `column` are one-based
/// and derived for human-readable diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pos {
    /// Zero-based byte offset into the source.
    pub offset: usize,
    /// One-based line number.
    pub line: u32,
    /// One-based column number (in bytes, not grapheme clusters).
    pub column: u32,
}

impl Pos {
    /// Position of the first byte of a source text.
    pub fn start() -> Self {
        Pos { offset: 0, line: 1, column: 1 }
    }

    /// Computes the position of byte `offset` within `src`.
    pub fn at(src: &str, offset: usize) -> Self {
        let mut line = 1u32;
        let mut column = 1u32;
        for (i, b) in src.bytes().enumerate() {
            if i >= offset {
                break;
            }
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        Pos { offset, line, column }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Errors produced while lexing, parsing, or evaluating RSL text.
#[derive(Debug, Clone, PartialEq)]
pub enum RslError {
    /// A brace, bracket, or quote was opened but never closed.
    Unterminated {
        /// What was left open (`"{"`, `"\""`, ...).
        what: &'static str,
        /// Where the unterminated construct started.
        pos: Pos,
    },
    /// A closing delimiter appeared with no matching opener.
    UnexpectedClose {
        /// The offending delimiter.
        what: char,
        /// Where it appeared.
        pos: Pos,
    },
    /// The expression tokenizer saw a character it does not understand.
    BadChar {
        /// The offending character.
        ch: char,
        /// Where it appeared.
        pos: Pos,
    },
    /// A numeric literal could not be parsed.
    BadNumber {
        /// The literal text.
        text: String,
        /// Where it appeared.
        pos: Pos,
    },
    /// The expression parser expected one token but found another.
    ExpectedToken {
        /// Human description of what was expected.
        expected: &'static str,
        /// Human description of what was found.
        found: String,
        /// Where the mismatch occurred.
        pos: Pos,
    },
    /// A name used in an expression was not bound in the environment.
    UnboundName {
        /// The dotted name that failed to resolve.
        name: String,
    },
    /// A function used in an expression is not a known builtin.
    UnknownFunction {
        /// The function name.
        name: String,
    },
    /// A builtin function was called with the wrong number of arguments.
    Arity {
        /// The function name.
        name: String,
        /// Number of arguments expected.
        expected: usize,
        /// Number of arguments supplied.
        got: usize,
    },
    /// A value had the wrong type for the operation applied to it.
    Type {
        /// Description of the operation.
        op: String,
        /// Description of the offending value.
        value: String,
    },
    /// Division or modulo by zero.
    DivideByZero,
    /// A schema-level error: a tag or structure in the RSL text does not
    /// match what Harmony expects (wrong arity, unknown tag, bad nesting).
    Schema {
        /// Human-readable description of the problem.
        message: String,
    },
    /// Evaluation exceeded the recursion/step budget (malicious or
    /// pathological input).
    BudgetExceeded,
    /// Braces or expression parentheses nest deeper than the parser's
    /// bound; parsing stops here instead of exhausting the stack.
    TooDeep {
        /// The nesting bound that was exceeded.
        limit: usize,
        /// Where the first level past the bound opens.
        pos: Pos,
    },
}

impl RslError {
    /// Convenience constructor for [`RslError::Schema`].
    pub fn schema(message: impl Into<String>) -> Self {
        RslError::Schema { message: message.into() }
    }
}

impl fmt::Display for RslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RslError::Unterminated { what, pos } => {
                write!(f, "unterminated {what} starting at {pos}")
            }
            RslError::UnexpectedClose { what, pos } => {
                write!(f, "unexpected `{what}` at {pos}")
            }
            RslError::BadChar { ch, pos } => {
                write!(f, "unexpected character `{ch}` at {pos}")
            }
            RslError::BadNumber { text, pos } => {
                write!(f, "malformed number `{text}` at {pos}")
            }
            RslError::ExpectedToken { expected, found, pos } => {
                write!(f, "expected {expected} but found {found} at {pos}")
            }
            RslError::UnboundName { name } => write!(f, "unbound name `{name}`"),
            RslError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            RslError::Arity { name, expected, got } => {
                write!(f, "function `{name}` expects {expected} argument(s), got {got}")
            }
            RslError::Type { op, value } => {
                write!(f, "type error: cannot apply {op} to {value}")
            }
            RslError::DivideByZero => write!(f, "division by zero"),
            RslError::Schema { message } => write!(f, "schema error: {message}"),
            RslError::BudgetExceeded => write!(f, "evaluation budget exceeded"),
            RslError::TooDeep { limit, pos } => {
                write!(f, "nesting deeper than {limit} levels at {pos}")
            }
        }
    }
}

impl std::error::Error for RslError {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RslError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_at_computes_line_and_column() {
        let src = "ab\ncd\nef";
        assert_eq!(Pos::at(src, 0), Pos { offset: 0, line: 1, column: 1 });
        assert_eq!(Pos::at(src, 1), Pos { offset: 1, line: 1, column: 2 });
        assert_eq!(Pos::at(src, 3), Pos { offset: 3, line: 2, column: 1 });
        assert_eq!(Pos::at(src, 7), Pos { offset: 7, line: 3, column: 2 });
    }

    #[test]
    fn pos_display_is_line_colon_column() {
        let p = Pos::at("x\ny", 2);
        assert_eq!(p.to_string(), "2:1");
    }

    #[test]
    fn errors_display_nonempty() {
        let cases: Vec<RslError> = vec![
            RslError::Unterminated { what: "{", pos: Pos::start() },
            RslError::UnexpectedClose { what: '}', pos: Pos::start() },
            RslError::BadChar { ch: '#', pos: Pos::start() },
            RslError::BadNumber { text: "1.2.3".into(), pos: Pos::start() },
            RslError::ExpectedToken {
                expected: "`)`",
                found: "end of input".into(),
                pos: Pos::start(),
            },
            RslError::UnboundName { name: "client.memory".into() },
            RslError::UnknownFunction { name: "frobnicate".into() },
            RslError::Arity { name: "min".into(), expected: 2, got: 1 },
            RslError::Type { op: "+".into(), value: "a list".into() },
            RslError::DivideByZero,
            RslError::schema("bundle must have at least one option"),
            RslError::BudgetExceeded,
            RslError::TooDeep { limit: 256, pos: Pos::start() },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            // std::error::Error is implemented.
            let _: &dyn std::error::Error = &e;
        }
    }
}
