//! Evaluator for RSL expressions.
//!
//! Semantics follow TCL's `expr` where the paper relies on it:
//!
//! * integer arithmetic stays integral (`7 / 2 == 3`) until a float enters;
//! * comparisons yield `1`/`0` as integers;
//! * `&&` / `||` short-circuit;
//! * the ternary `?:` evaluates only the taken branch;
//! * string comparison (`==`, `!=`, `<` …) is lexicographic when either side
//!   is a non-numeric string.

use crate::error::{Result, RslError};
use crate::expr::ast::{BinOp, Expr, UnOp};
use crate::expr::env::Env;
use crate::value::Value;

/// Upper bound on AST nodes visited per evaluation; guards against
/// pathological inputs in a long-lived server.
const EVAL_BUDGET: usize = 1_000_000;

struct Evaluator<'e, E: ?Sized> {
    env: &'e E,
    budget: usize,
}

fn both_numeric(a: &Value, b: &Value) -> bool {
    fn numeric(v: &Value) -> bool {
        match v {
            Value::Int(_) | Value::Float(_) => true,
            Value::Str(s) => s.parse::<f64>().is_ok(),
            Value::List(_) => false,
        }
    }
    numeric(a) && numeric(b)
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    // Integer arithmetic when both sides are Int, else float.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        let (x, y) = (*x, *y);
        return match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(y))),
            BinOp::Div => {
                if y == 0 {
                    Err(RslError::DivideByZero)
                } else {
                    Ok(Value::Int(x.wrapping_div(y)))
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    Err(RslError::DivideByZero)
                } else {
                    Ok(Value::Int(x.wrapping_rem(y)))
                }
            }
            _ => unreachable!("arith called with non-arith op"),
        };
    }
    let x = a.as_f64()?;
    let y = b.as_f64()?;
    match op {
        BinOp::Add => Ok(Value::Float(x + y)),
        BinOp::Sub => Ok(Value::Float(x - y)),
        BinOp::Mul => Ok(Value::Float(x * y)),
        BinOp::Div => {
            if y == 0.0 {
                Err(RslError::DivideByZero)
            } else {
                Ok(Value::Float(x / y))
            }
        }
        BinOp::Rem => {
            if y == 0.0 {
                Err(RslError::DivideByZero)
            } else {
                Ok(Value::Float(x % y))
            }
        }
        _ => unreachable!("arith called with non-arith op"),
    }
}

fn compare(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    let ord = if both_numeric(a, b) {
        a.as_f64()?.partial_cmp(&b.as_f64()?)
    } else {
        let sa = a.canonical();
        let sb = b.canonical();
        Some(sa.cmp(&sb))
    };
    let Some(ord) = ord else {
        // NaN comparisons: only != holds.
        return Ok(Value::from(op == BinOp::Ne));
    };
    let truth = match op {
        BinOp::Eq => ord == std::cmp::Ordering::Equal,
        BinOp::Ne => ord != std::cmp::Ordering::Equal,
        BinOp::Lt => ord == std::cmp::Ordering::Less,
        BinOp::Le => ord != std::cmp::Ordering::Greater,
        BinOp::Gt => ord == std::cmp::Ordering::Greater,
        BinOp::Ge => ord != std::cmp::Ordering::Less,
        _ => unreachable!("compare called with non-comparison op"),
    };
    Ok(Value::from(truth))
}

impl<E: Env + ?Sized> Evaluator<'_, E> {
    fn eval(&mut self, expr: &Expr) -> Result<Value> {
        if self.budget == 0 {
            return Err(RslError::BudgetExceeded);
        }
        self.budget -= 1;
        match expr {
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(x) => Ok(Value::Float(*x)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Name(n) => {
                self.env.lookup(n).ok_or_else(|| RslError::UnboundName { name: n.clone() })
            }
            Expr::Unary(UnOp::Neg, e) => match self.eval(e)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                other => Ok(Value::Float(-other.as_f64()?)),
            },
            Expr::Unary(UnOp::Not, e) => {
                let v = self.eval(e)?;
                Ok(Value::from(!v.as_bool()?))
            }
            Expr::Binary(BinOp::And, a, b) => {
                if !self.eval(a)?.as_bool()? {
                    Ok(Value::from(false))
                } else {
                    Ok(Value::from(self.eval(b)?.as_bool()?))
                }
            }
            Expr::Binary(BinOp::Or, a, b) => {
                if self.eval(a)?.as_bool()? {
                    Ok(Value::from(true))
                } else {
                    Ok(Value::from(self.eval(b)?.as_bool()?))
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        arith(*op, &va, &vb)
                    }
                    _ => compare(*op, &va, &vb),
                }
            }
            Expr::Ternary(c, t, e) => {
                if self.eval(c)?.as_bool()? {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                call_builtin(name, &vals)
            }
        }
    }
}

fn need_args(name: &str, expected: usize, got: &[Value]) -> Result<()> {
    if got.len() == expected {
        Ok(())
    } else {
        Err(RslError::Arity { name: name.into(), expected, got: got.len() })
    }
}

fn variadic_fold(name: &str, args: &[Value], f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    if args.is_empty() {
        return Err(RslError::Arity { name: name.into(), expected: 1, got: 0 });
    }
    let mut acc = args[0].as_f64()?;
    let mut all_int = matches!(args[0], Value::Int(_));
    for v in &args[1..] {
        all_int &= matches!(v, Value::Int(_));
        acc = f(acc, v.as_f64()?);
    }
    if all_int {
        Ok(Value::Int(acc as i64))
    } else {
        Ok(Value::Float(acc))
    }
}

/// Invokes a builtin function by name.
///
/// Builtins: `min`, `max` (variadic ≥1), `abs`, `floor`, `ceil`, `round`,
/// `sqrt`, `exp`, `log`, `log2`, `log10`, `int`, `double`, `pow(x,y)`,
/// `clamp(x,lo,hi)`.
///
/// # Errors
///
/// [`RslError::UnknownFunction`] for unknown names, [`RslError::Arity`] on
/// argument-count mismatch, and type errors from argument conversion.
pub fn call_builtin(name: &str, args: &[Value]) -> Result<Value> {
    match name {
        "min" => variadic_fold(name, args, f64::min),
        "max" => variadic_fold(name, args, f64::max),
        "abs" => {
            need_args(name, 1, args)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                v => Ok(Value::Float(v.as_f64()?.abs())),
            }
        }
        "floor" => {
            need_args(name, 1, args)?;
            Ok(Value::Int(args[0].as_f64()?.floor() as i64))
        }
        "ceil" => {
            need_args(name, 1, args)?;
            Ok(Value::Int(args[0].as_f64()?.ceil() as i64))
        }
        "round" => {
            need_args(name, 1, args)?;
            Ok(Value::Int(args[0].as_f64()?.round() as i64))
        }
        "sqrt" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?.sqrt()))
        }
        "exp" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?.exp()))
        }
        "log" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?.ln()))
        }
        "log2" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?.log2()))
        }
        "log10" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?.log10()))
        }
        "int" => {
            need_args(name, 1, args)?;
            Ok(Value::Int(args[0].as_i64()?))
        }
        "double" => {
            need_args(name, 1, args)?;
            Ok(Value::Float(args[0].as_f64()?))
        }
        "pow" => {
            need_args(name, 2, args)?;
            Ok(Value::Float(args[0].as_f64()?.powf(args[1].as_f64()?)))
        }
        "clamp" => {
            need_args(name, 3, args)?;
            let x = args[0].as_f64()?;
            let lo = args[1].as_f64()?;
            let hi = args[2].as_f64()?;
            Ok(Value::Float(x.clamp(lo, hi)))
        }
        _ => Err(RslError::UnknownFunction { name: name.into() }),
    }
}

/// Evaluates `expr` against `env`.
///
/// # Errors
///
/// Propagates [`RslError::UnboundName`], type errors,
/// [`RslError::DivideByZero`], and builtin-call errors.
///
/// # Examples
///
/// ```
/// use harmony_rsl::expr::{eval, parse_expr, MapEnv};
/// use harmony_rsl::Value;
///
/// let e = parse_expr("44 + (client.memory > 24 ? 24 : client.memory) - 17")?;
/// let mut env = MapEnv::new();
/// env.set("client.memory", Value::Int(20));
/// assert_eq!(eval(&e, &env)?, Value::Int(47));
/// env.set("client.memory", Value::Int(64));
/// assert_eq!(eval(&e, &env)?, Value::Int(51));
/// # Ok::<(), harmony_rsl::RslError>(())
/// ```
pub fn eval<E: Env + ?Sized>(expr: &Expr, env: &E) -> Result<Value> {
    Evaluator { env, budget: EVAL_BUDGET }.eval(expr)
}

/// Parses and evaluates in one step; convenience for tag values.
///
/// # Errors
///
/// Union of [`crate::expr::parse_expr`] and [`eval`] errors.
pub fn eval_str<E: Env + ?Sized>(src: &str, env: &E) -> Result<Value> {
    eval(&crate::expr::parse_expr(src)?, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::env::{EmptyEnv, MapEnv};
    use crate::expr::parse_expr;

    fn ev(src: &str) -> Value {
        eval_str(src, &EmptyEnv).unwrap()
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        assert_eq!(ev("7 / 2"), Value::Int(3));
        assert_eq!(ev("7 % 2"), Value::Int(1));
        assert_eq!(ev("2 + 3 * 4"), Value::Int(14));
    }

    #[test]
    fn float_contaminates() {
        assert_eq!(ev("7.0 / 2"), Value::Float(3.5));
        assert_eq!(ev("1 + 0.5"), Value::Float(1.5));
    }

    #[test]
    fn divide_by_zero_is_error() {
        assert_eq!(eval_str("1 / 0", &EmptyEnv), Err(RslError::DivideByZero));
        assert_eq!(eval_str("1 % 0", &EmptyEnv), Err(RslError::DivideByZero));
        assert_eq!(eval_str("1.0 / 0.0", &EmptyEnv), Err(RslError::DivideByZero));
    }

    #[test]
    fn comparisons_yield_ints() {
        assert_eq!(ev("2 < 3"), Value::Int(1));
        assert_eq!(ev("2 >= 3"), Value::Int(0));
        assert_eq!(ev("2 == 2.0"), Value::Int(1));
        assert_eq!(ev("2 != 2"), Value::Int(0));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(ev(r#""linux" == "linux""#), Value::Int(1));
        assert_eq!(ev(r#""aix" < "linux""#), Value::Int(1));
        assert_eq!(ev(r#""solaris" == "linux""#), Value::Int(0));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // The second operand would divide by zero if evaluated.
        assert_eq!(ev("0 && (1 / 0)"), Value::Int(0));
        assert_eq!(ev("1 || (1 / 0)"), Value::Int(1));
    }

    #[test]
    fn ternary_takes_only_one_branch() {
        assert_eq!(ev("1 ? 10 : (1 / 0)"), Value::Int(10));
        assert_eq!(ev("0 ? (1 / 0) : 20"), Value::Int(20));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(ev("-3"), Value::Int(-3));
        assert_eq!(ev("-3.5"), Value::Float(-3.5));
        assert_eq!(ev("!0"), Value::Int(1));
        assert_eq!(ev("!3"), Value::Int(0));
    }

    #[test]
    fn unbound_name_error_carries_name() {
        let err = eval_str("client.memory + 1", &EmptyEnv).unwrap_err();
        assert_eq!(err, RslError::UnboundName { name: "client.memory".into() });
    }

    #[test]
    fn env_lookup() {
        let mut env = MapEnv::new();
        env.set("workerNodes", Value::Int(4));
        assert_eq!(eval_str("1200 / workerNodes", &env).unwrap(), Value::Int(300));
        assert_eq!(eval_str("0.5 * workerNodes * workerNodes", &env).unwrap(), Value::Float(8.0));
    }

    #[test]
    fn builtins() {
        assert_eq!(ev("min(3, 1, 2)"), Value::Int(1));
        assert_eq!(ev("max(3, 1, 2)"), Value::Int(3));
        assert_eq!(ev("min(1.5, 2)"), Value::Float(1.5));
        assert_eq!(ev("abs(-4)"), Value::Int(4));
        assert_eq!(ev("abs(-4.5)"), Value::Float(4.5));
        assert_eq!(ev("floor(2.9)"), Value::Int(2));
        assert_eq!(ev("ceil(2.1)"), Value::Int(3));
        assert_eq!(ev("round(2.5)"), Value::Int(3));
        assert_eq!(ev("sqrt(9)"), Value::Float(3.0));
        assert_eq!(ev("pow(2, 10)"), Value::Float(1024.0));
        assert_eq!(ev("int(2.9)"), Value::Int(2));
        assert_eq!(ev("double(2)"), Value::Float(2.0));
        assert_eq!(ev("clamp(5, 0, 3)"), Value::Float(3.0));
        assert_eq!(ev("log(exp(1.0))"), Value::Float(1.0));
        assert_eq!(ev("log2(8)"), Value::Float(3.0));
        assert_eq!(ev("log10(1000)"), Value::Float(3.0));
    }

    #[test]
    fn builtin_errors() {
        assert!(matches!(eval_str("min()", &EmptyEnv), Err(RslError::Arity { .. })));
        assert!(matches!(eval_str("pow(2)", &EmptyEnv), Err(RslError::Arity { .. })));
        assert!(matches!(
            eval_str("nosuchfn(1)", &EmptyEnv),
            Err(RslError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn fig3_bandwidth_expression_semantics() {
        // 44 + min(client.memory, 24) - 17: more client memory displaces
        // transfer bandwidth up to a 24 MB cap.
        let e = parse_expr("44 + (client.memory > 24 ? 24 : client.memory) - 17").unwrap();
        let mut env = MapEnv::new();
        for (mem, expect) in [(17, 44), (20, 47), (24, 51), (32, 51), (64, 51)] {
            env.set("client.memory", Value::Int(mem));
            assert_eq!(eval(&e, &env).unwrap(), Value::Int(expect), "memory={mem}");
        }
    }

    #[test]
    fn deep_expression_exhausts_budget_not_stack() {
        // (((...1...))) — 200 levels sit inside the parser's
        // `MAX_EXPR_DEPTH` bound (deeper input is refused before it can
        // exhaust the stack); the evaluator budget guards runaway
        // evaluation cost.
        let src = format!("{}1{}", "(".repeat(200), ")".repeat(200));
        assert_eq!(ev(&src), Value::Int(1));
    }

    #[test]
    fn wrapping_not_panicking_on_overflow() {
        let v = ev("9223372036854775807 + 1");
        assert_eq!(v, Value::Int(i64::MIN));
    }
}
