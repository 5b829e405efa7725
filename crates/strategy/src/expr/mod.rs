//! The execution-strategy expression language (paper Section III.A).
//!
//! * [`ast`] — canonical n-ary strategy trees and the [`Strategy`] type;
//! * `parser` — the textual notation (`a-b*c`, `(a-b)*c`, …), exposed via
//!   [`Strategy::parse`];
//! * `display` — minimal-parenthesis rendering via `Display` and
//!   [`Strategy::to_string_with_names`].

pub mod ast;
mod display;
mod parser;

pub use ast::{Node, Strategy};
pub(crate) use display::render_into;
pub use parser::MAX_NESTING_DEPTH;
