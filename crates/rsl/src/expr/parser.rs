//! Recursive-descent parser for RSL expressions.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := or ('?' expr ':' expr)?
//! or      := and ('||' and)*
//! and     := cmp ('&&' cmp)*
//! cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//! add     := mul (('+'|'-') mul)*
//! mul     := unary (('*'|'/'|'%') unary)*
//! unary   := ('-'|'!') unary | primary
//! primary := INT | FLOAT | STRING | NAME ('(' args ')')? | '(' expr ')'
//! ```
//!
//! Comparison is non-associative (as in C's warning-free subset): chains
//! like `a < b < c` are rejected, which catches a common spec bug where the
//! author meant `a < b && b < c`.

use crate::error::{Pos, Result, RslError};
use crate::expr::ast::{BinOp, Expr, UnOp};
use crate::expr::token::{tokenize, Spanned, Tok};

/// The deepest expression nesting [`parse_expr`] accepts: parentheses,
/// call arguments, ternary branches and prefix operators each count one
/// level. The parser recurses several frames per level, so the bound keeps
/// hostile input from overflowing a connection thread's stack.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Binary precedence levels, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
const CMP: u8 = 3;
const ADD: u8 = 4;
const MUL: u8 = 5;

struct Parser<'s> {
    src: &'s str,
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn advance(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Pos {
        let offset = self.toks.get(self.pos).map(|s| s.offset).unwrap_or_else(|| self.src.len());
        Pos::at(self.src, offset)
    }

    fn found(&self) -> String {
        match self.peek() {
            Some(t) => t.describe(),
            None => "end of input".into(),
        }
    }

    fn expect(&mut self, tok: Tok, expected: &'static str) -> Result<()> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(RslError::ExpectedToken { expected, found: self.found(), pos: self.here() })
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past
    /// [`MAX_EXPR_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(RslError::TooDeep { limit: MAX_EXPR_DEPTH, pos: self.here() });
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }

    fn ternary(&mut self) -> Result<Expr> {
        let cond = self.binary(OR)?;
        if self.peek() == Some(&Tok::Question) {
            self.pos += 1;
            let then = self.nested(Self::ternary)?;
            self.expect(Tok::Colon, "`:`")?;
            let els = self.nested(Self::ternary)?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(then), Box::new(els)))
        } else {
            Ok(cond)
        }
    }

    /// The binary operator at the cursor with its precedence level
    /// (1 `||` … 5 multiplicative).
    fn binary_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek()? {
            Tok::OrOr => (BinOp::Or, OR),
            Tok::AndAnd => (BinOp::And, AND),
            Tok::EqEq => (BinOp::Eq, CMP),
            Tok::NotEq => (BinOp::Ne, CMP),
            Tok::Lt => (BinOp::Lt, CMP),
            Tok::Le => (BinOp::Le, CMP),
            Tok::Gt => (BinOp::Gt, CMP),
            Tok::Ge => (BinOp::Ge, CMP),
            Tok::Plus => (BinOp::Add, ADD),
            Tok::Minus => (BinOp::Sub, ADD),
            Tok::Star => (BinOp::Mul, MUL),
            Tok::Slash => (BinOp::Div, MUL),
            Tok::Percent => (BinOp::Rem, MUL),
            _ => return None,
        })
    }

    /// Precedence climbing over the `or` … `mul` rules: binary operators
    /// of level `min_prec` and above, left-associative. One frame per
    /// operand instead of one per grammar rule keeps the stack cost of
    /// each parenthesis level small.
    fn binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binary_op().filter(|&(_, p)| p >= min_prec) {
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            // Reject chained comparisons: `a < b < c` is almost always a bug.
            if prec == CMP && self.binary_op().is_some_and(|(_, p)| p == CMP) {
                return Err(RslError::ExpectedToken {
                    expected: "no chained comparison (use `&&`)",
                    found: self.found(),
                    pos: self.here(),
                });
            }
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.nested(Self::unary)?)))
            }
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Not, Box::new(self.nested(Self::unary)?)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Tok::Int(i)) => Ok(Expr::Int(i)),
            Some(Tok::Float(x)) => Ok(Expr::Float(x)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Name(n)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.nested(Self::ternary)?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    Ok(Expr::Call(n, args))
                } else {
                    Ok(Expr::Name(n))
                }
            }
            Some(Tok::LParen) => {
                let e = self.nested(Self::ternary)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(RslError::ExpectedToken {
                expected: "a value",
                found: other.map(|t| t.describe()).unwrap_or_else(|| "end of input".into()),
                pos: self.here(),
            }),
        }
    }
}

/// Parses an expression string into an [`Expr`].
///
/// # Errors
///
/// Returns tokenizer errors, [`RslError::ExpectedToken`] for grammar
/// violations (including trailing tokens after a complete expression), and
/// [`RslError::TooDeep`] past [`MAX_EXPR_DEPTH`] nesting levels.
///
/// # Examples
///
/// ```
/// use harmony_rsl::expr::parse_expr;
/// let e = parse_expr("44 + (client.memory > 24 ? 24 : client.memory) - 17")?;
/// assert_eq!(e.free_names(), vec!["client.memory".to_string()]);
/// # Ok::<(), harmony_rsl::RslError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = tokenize(src)?;
    let mut p = Parser { src, toks, pos: 0, depth: 0 };
    let e = p.ternary()?;
    if p.peek().is_some() {
        return Err(RslError::ExpectedToken {
            expected: "end of expression",
            found: p.found(),
            pos: p.here(),
        });
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Int(1)),
                Box::new(Expr::Binary(BinOp::Mul, Box::new(Expr::Int(2)), Box::new(Expr::Int(3)))),
            )
        );
    }

    #[test]
    fn left_associativity_of_sub() {
        let e = parse_expr("10 - 3 - 2").unwrap();
        // (10 - 3) - 2
        assert_eq!(e.to_string(), "((10 - 3) - 2)");
    }

    #[test]
    fn parens_override() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "((1 + 2) * 3)");
    }

    #[test]
    fn ternary_is_right_associative() {
        let e = parse_expr("a ? 1 : b ? 2 : 3").unwrap();
        assert_eq!(e.to_string(), "(a ? 1 : (b ? 2 : 3))");
    }

    #[test]
    fn nested_ternary_in_then_branch() {
        let e = parse_expr("a ? b ? 1 : 2 : 3").unwrap();
        assert_eq!(e.to_string(), "(a ? (b ? 1 : 2) : 3)");
    }

    #[test]
    fn logical_precedence() {
        let e = parse_expr("a || b && c").unwrap();
        assert_eq!(e.to_string(), "(a || (b && c))");
    }

    #[test]
    fn comparison_binds_tighter_than_logic() {
        let e = parse_expr("a < 2 && b > 3").unwrap();
        assert_eq!(e.to_string(), "((a < 2) && (b > 3))");
    }

    #[test]
    fn chained_comparison_rejected() {
        assert!(parse_expr("a < b < c").is_err());
    }

    #[test]
    fn call_with_args() {
        let e = parse_expr("min(a, 2 + 3)").unwrap();
        assert_eq!(
            e,
            Expr::Call(
                "min".into(),
                vec![
                    Expr::Name("a".into()),
                    Expr::Binary(BinOp::Add, Box::new(Expr::Int(2)), Box::new(Expr::Int(3))),
                ]
            )
        );
    }

    #[test]
    fn call_with_no_args() {
        let e = parse_expr("rand()").unwrap();
        assert_eq!(e, Expr::Call("rand".into(), vec![]));
    }

    #[test]
    fn unary_stacking() {
        let e = parse_expr("--1").unwrap();
        assert_eq!(e.to_string(), "-(-(1))");
        let e = parse_expr("!!x").unwrap();
        assert_eq!(e.to_string(), "!(!(x))");
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_expr("1 + 2 3").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("").is_err());
        assert!(parse_expr("(1").is_err());
    }

    #[test]
    fn fig3_expression_parses() {
        let e = parse_expr("44 + (client.memory > 24 ? 24 : client.memory) - 17").unwrap();
        assert_eq!(e.free_names(), vec!["client.memory".to_string()]);
    }

    #[test]
    fn nesting_is_bounded_not_recursed_without_limit() {
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&parens(MAX_EXPR_DEPTH)).is_ok());
        let err = parse_expr(&parens(MAX_EXPR_DEPTH + 1)).unwrap_err();
        assert!(matches!(err, RslError::TooDeep { limit: MAX_EXPR_DEPTH, .. }), "{err:?}");
        // Prefix operators, call arguments and ternary branches nest too.
        let negs = format!("{}1", "-".repeat(MAX_EXPR_DEPTH + 1));
        assert!(matches!(parse_expr(&negs), Err(RslError::TooDeep { .. })));
        let calls =
            format!("{}1{}", "min(".repeat(MAX_EXPR_DEPTH + 1), ")".repeat(MAX_EXPR_DEPTH + 1));
        assert!(matches!(parse_expr(&calls), Err(RslError::TooDeep { .. })));
        let ternaries = format!("{}1", "a ? 1 : ".repeat(MAX_EXPR_DEPTH + 1));
        assert!(matches!(parse_expr(&ternaries), Err(RslError::TooDeep { .. })));
        // Thousands of levels are refused, not a stack overflow.
        assert!(matches!(parse_expr(&parens(3_000)), Err(RslError::TooDeep { .. })));
    }

    #[test]
    fn fig2b_expressions_parse() {
        assert!(parse_expr("1200 / workerNodes").is_ok());
        assert!(parse_expr("0.5 * workerNodes * workerNodes").is_ok());
    }
}
