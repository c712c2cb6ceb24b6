//! The RSL expression sublanguage: tokenizer, parser, and evaluator.
//!
//! Tag values in RSL may be *parameterized* — computed from the resources
//! Harmony actually allocates. The paper's Figure 3 parameterizes the
//! data-shipping link bandwidth on the client's allocated memory:
//!
//! ```text
//! {link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
//! ```
//!
//! and Figure 2(b) parameterizes per-node CPU seconds and total bandwidth on
//! the number of workers:
//!
//! ```text
//! {seconds {1200 / workerNodes}}
//! {communication {0.5 * workerNodes * workerNodes}}
//! ```
//!
//! This module parses and evaluates exactly that language.

mod ast;
mod env;
mod eval;
mod parser;
mod token;

pub use ast::{BinOp, Expr, UnOp};
pub use env::{ChainEnv, EmptyEnv, Env, FnEnv, MapEnv};
pub use eval::{call_builtin, eval, eval_str};
pub use parser::{parse_expr, MAX_EXPR_DEPTH};
pub use token::{tokenize, Spanned, Tok};
