//! Minimal-parenthesis rendering of strategies.
//!
//! The printer inserts parentheses only where Observation 3 of the paper
//! requires them: around a sequential sub-expression that appears as an
//! operand of the `*` operator. Everything else renders bare, so
//! `Seq[a, Par[b, c], d]` prints as `a-b*c-d` while `Par[Seq[a, b], c]`
//! prints as `(a-b)*c`.
//!
//! `parse(display(s)) == s` holds for every canonical strategy (covered by a
//! property test in the crate's test suite).

use std::fmt;

use crate::expr::ast::{Node, Strategy};

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_node(self.node(), f, false)
    }
}

impl Strategy {
    /// Renders the strategy with microservice names in place of the default
    /// letters: `names[i]` replaces `MsId(i)`. Ids beyond `names` fall back
    /// to their default rendering.
    ///
    /// This is the inverse of
    /// [`Strategy::parse_with_names`](crate::Strategy::parse_with_names) and
    /// is what gateways log (`readTempSensor-estTemp-readLocTemp` rather
    /// than `a-b-c`).
    ///
    /// # Examples
    ///
    /// ```
    /// use qce_strategy::Strategy;
    ///
    /// let s = Strategy::parse("a-b*c")?;
    /// let names = ["readTempSensor", "estTemp", "readLocTemp"];
    /// assert_eq!(
    ///     s.to_string_with_names(&names),
    ///     "readTempSensor-estTemp*readLocTemp"
    /// );
    /// # Ok::<(), qce_strategy::ParseError>(())
    /// ```
    #[must_use]
    pub fn to_string_with_names<S: AsRef<str>>(&self, names: &[S]) -> String {
        let mut out = String::new();
        write_named(self.node(), names, &mut out, false);
        out
    }
}

fn write_named<S: AsRef<str>>(node: &Node, names: &[S], out: &mut String, parenthesize_seq: bool) {
    match node {
        Node::Leaf(id) => match names.get(id.index()) {
            Some(name) => out.push_str(name.as_ref()),
            None => id.write_name(out).expect("writing to a String cannot fail"),
        },
        Node::Seq(children) => {
            if parenthesize_seq {
                out.push('(');
            }
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push('-');
                }
                write_named(child, names, out, false);
            }
            if parenthesize_seq {
                out.push(')');
            }
        }
        Node::Par(children) => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push('*');
                }
                write_named(child, names, out, true);
            }
        }
    }
}

/// Appends to `out` what [`Display`](fmt::Display) prints for the strategy
/// rooted at `node`, without building the [`Strategy`] or a fresh `String`
/// (the synthesis engine renders whole candidate families into one arena).
pub(crate) fn render_into(node: &Node, out: &mut String) {
    write_named::<&str>(node, &[], out, false);
}

/// Writes `node`; `parenthesize_seq` is `true` when the node appears as an
/// operand of `*` and therefore needs parentheses if it is sequential.
fn write_node(node: &Node, f: &mut fmt::Formatter<'_>, parenthesize_seq: bool) -> fmt::Result {
    match node {
        Node::Leaf(id) => write!(f, "{id}"),
        Node::Seq(children) => {
            if parenthesize_seq {
                f.write_str("(")?;
            }
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    f.write_str("-")?;
                }
                // A Seq child is never itself a Seq (canonical form); a Par
                // child binds tighter than '-' so it needs no parentheses.
                write_node(child, f, false)?;
            }
            if parenthesize_seq {
                f.write_str(")")?;
            }
            Ok(())
        }
        Node::Par(children) => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    f.write_str("*")?;
                }
                // A Par child is a Leaf or a Seq; a Seq operand of '*' is the
                // one case where parentheses are semantically required.
                write_node(child, f, true)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{MsId, Strategy};

    fn leaf(i: usize) -> Strategy {
        Strategy::leaf(MsId(i))
    }

    #[test]
    fn leaf_displays_as_letter() {
        assert_eq!(leaf(0).to_string(), "a");
        assert_eq!(leaf(25).to_string(), "z");
        assert_eq!(leaf(26).to_string(), "ms26");
    }

    #[test]
    fn failover_and_parallel_display() {
        let fo = Strategy::seq((0..5).map(leaf)).unwrap();
        assert_eq!(fo.to_string(), "a-b-c-d-e");
        let sp = Strategy::par((0..5).map(leaf)).unwrap();
        assert_eq!(sp.to_string(), "a*b*c*d*e");
    }

    #[test]
    fn par_inside_seq_needs_no_parens() {
        let s = Strategy::seq([
            leaf(0),
            Strategy::par([leaf(1), leaf(2)]).unwrap(),
            leaf(3),
            leaf(4),
        ])
        .unwrap();
        assert_eq!(s.to_string(), "a-b*c-d-e");
    }

    #[test]
    fn seq_inside_par_needs_parens() {
        let s = Strategy::par([Strategy::seq([leaf(0), leaf(1)]).unwrap(), leaf(2)]).unwrap();
        assert_eq!(s.to_string(), "c*(a-b)");
    }

    #[test]
    fn nested_structure_display() {
        // Table II strategy 4: c*(a*b-d*e); Par children sort Leaf < Seq.
        let s = Strategy::parse("c*(a*b-d*e)").unwrap();
        assert_eq!(s.to_string(), "c*(a*b-d*e)");
        // Round-trips to the same strategy.
        assert_eq!(Strategy::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn display_round_trips_through_parser() {
        for text in [
            "a",
            "a-b",
            "a*b",
            "a-b*c",
            "(a-b)*c",
            "a*b-c*d*e",
            "c*(a*b-d*e)",
            "((a-b)*c)-d",
            "(a-b*c)*(d-e)",
            "a-(b-c)*d",
        ] {
            let s = Strategy::parse(text).unwrap();
            let rendered = s.to_string();
            let reparsed = Strategy::parse(&rendered).unwrap();
            assert_eq!(s, reparsed, "{text} -> {rendered}");
        }
    }

    #[test]
    fn rendered_form_is_canonical_and_stable() {
        let s1 = Strategy::parse("b*a-c").unwrap();
        let s2 = Strategy::parse("a*b-c").unwrap();
        assert_eq!(s1.to_string(), s2.to_string());
        assert_eq!(s1.to_string(), "a*b-c");
    }
}

#[cfg(test)]
mod named_tests {
    use crate::Strategy;

    #[test]
    fn named_rendering_round_trips_through_named_parser() {
        let names = ["cam", "smoke", "flame", "gas"];
        for text in [
            "cam-smoke*flame-gas",
            "(cam-smoke)*flame",
            "cam*smoke*flame*gas",
        ] {
            let s = Strategy::parse_with_names(text, &names).unwrap();
            let rendered = s.to_string_with_names(&names);
            let reparsed = Strategy::parse_with_names(&rendered, &names).unwrap();
            assert_eq!(s, reparsed, "{text} -> {rendered}");
        }
    }

    #[test]
    fn missing_names_fall_back_to_default() {
        let s = Strategy::parse("a-c").unwrap();
        assert_eq!(s.to_string_with_names(&["first"]), "first-c");
    }

    #[test]
    fn parens_preserved_in_named_rendering() {
        let names = ["x", "y", "z"];
        let s = Strategy::parse_with_names("(x-y)*z", &names).unwrap();
        assert_eq!(s.to_string_with_names(&names), "z*(x-y)");
    }
}
