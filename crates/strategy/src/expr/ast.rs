//! Canonical abstract syntax tree for execution strategies.
//!
//! A strategy expression follows the paper's EBNF (Fig. 2):
//!
//! ```text
//! es ::= eqvFunc | es - es | es * es | ( es )
//! ```
//!
//! Internally we store the *canonical form* implied by the paper's three
//! observations (Section III.A):
//!
//! * Observation 1 — `*` is commutative, `-` is not: parallel children are
//!   kept sorted in a deterministic order.
//! * Observation 2 — both operators are associative: nodes are n-ary and
//!   flattened, so a `Seq` never directly contains a `Seq` and a `Par` never
//!   directly contains a `Par`.
//! * Observation 3 — parentheses are only semantically required around a
//!   sequential sub-expression that is an operand of `*`; the canonical tree
//!   encodes grouping structurally, and [`Display`](std::fmt::Display)
//!   re-inserts exactly the required parentheses.
//!
//! Two strategies compare equal with `==` if and only if they express the
//! same execution control logic.

use std::collections::BTreeSet;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::error::{BuildError, ParseError};
use crate::MsId;

/// A node of a canonical strategy tree.
///
/// The derived [`Ord`] provides the deterministic ordering used to sort the
/// children of parallel nodes: leaves sort before sequential nodes, which
/// sort before parallel nodes; ties break lexicographically on children.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A single equivalent microservice.
    Leaf(MsId),
    /// Sequential composition: execute children left to right, moving to the
    /// next child only when the previous one failed. Invariant: at least two
    /// children, none of which is itself a `Seq`.
    Seq(Vec<Node>),
    /// Parallel composition: execute all children simultaneously, finishing
    /// as soon as any succeeds. Invariant: at least two children, none of
    /// which is itself a `Par`, kept in sorted order.
    Par(Vec<Node>),
}

impl Node {
    /// Number of microservice leaves in this subtree.
    #[must_use]
    pub(crate) fn leaf_count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Seq(children) | Node::Par(children) => {
                children.iter().map(Node::leaf_count).sum()
            }
        }
    }

    /// Depth of this subtree (a leaf has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Seq(children) | Node::Par(children) => {
                1 + children.iter().map(Node::depth).max().unwrap_or(0)
            }
        }
    }

    /// Appends the ids of all leaves, left to right, to `out`.
    pub(crate) fn collect_leaves(&self, out: &mut Vec<MsId>) {
        match self {
            Node::Leaf(id) => out.push(*id),
            Node::Seq(children) | Node::Par(children) => {
                for child in children {
                    child.collect_leaves(out);
                }
            }
        }
    }

    /// Flattens directly-nested nodes of the same kind and sorts parallel
    /// children, producing the canonical form of this subtree.
    fn canonicalize(self) -> Node {
        match self {
            Node::Leaf(id) => Node::Leaf(id),
            Node::Seq(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for child in children {
                    match child.canonicalize() {
                        Node::Seq(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    Node::Seq(flat)
                }
            }
            Node::Par(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for child in children {
                    match child.canonicalize() {
                        Node::Par(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    flat.sort();
                    Node::Par(flat)
                }
            }
        }
    }

    /// Rewrites every leaf id through `f`.
    #[must_use]
    pub(crate) fn map_ids(&self, f: &impl Fn(MsId) -> MsId) -> Node {
        match self {
            Node::Leaf(id) => Node::Leaf(f(*id)),
            Node::Seq(children) => Node::Seq(children.iter().map(|c| c.map_ids(f)).collect()),
            Node::Par(children) => Node::Par(children.iter().map(|c| c.map_ids(f)).collect()),
        }
    }
}

/// An execution strategy over a set of distinct equivalent microservices, in
/// canonical form.
///
/// Construct strategies with [`Strategy::leaf`], [`Strategy::seq`],
/// [`Strategy::par`], the chaining combinators [`Strategy::then`] /
/// [`Strategy::race`], or by parsing the paper's textual notation with
/// [`Strategy::parse`](crate::Strategy::parse).
///
/// Equality is semantic: `a*b == b*a` while `a-b != b-a`, exactly as in the
/// paper's Observation 1.
///
/// # Examples
///
/// ```
/// use qce_strategy::Strategy;
///
/// let failover = Strategy::parse("a-b-c-d-e")?;
/// let parallel = Strategy::parse("a*b*c*d*e")?;
/// let custom = Strategy::parse("c*(a*b-d*e)")?;
///
/// assert_eq!(failover.len(), 5);
/// assert!(failover.is_failover());
/// assert!(parallel.is_parallel());
/// assert_eq!(custom.to_string(), "c*(a*b-d*e)");
/// assert_eq!(custom, Strategy::parse("c * (b*a - e*d)")?);
/// # Ok::<(), qce_strategy::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Strategy {
    root: Node,
}

impl Strategy {
    /// Creates a strategy consisting of a single microservice.
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::leaf(MsId(0));
    /// assert_eq!(s.to_string(), "a");
    /// ```
    #[must_use]
    pub fn leaf(id: MsId) -> Self {
        Strategy {
            root: Node::Leaf(id),
        }
    }

    /// Creates the sequential (fail-over) composition of `parts`, preserving
    /// their order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TooFewOperands`] for fewer than two parts and
    /// [`BuildError::DuplicateMicroservice`] if any microservice appears in
    /// more than one part.
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::seq((0..3).map(|i| Strategy::leaf(MsId(i))))?;
    /// assert_eq!(s.to_string(), "a-b-c");
    /// # Ok::<(), qce_strategy::BuildError>(())
    /// ```
    pub fn seq<I: IntoIterator<Item = Strategy>>(parts: I) -> Result<Self, BuildError> {
        Self::combine(parts, Node::Seq)
    }

    /// Creates the parallel (speculative) composition of `parts`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Strategy::seq`].
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::par((0..3).map(|i| Strategy::leaf(MsId(i))))?;
    /// assert_eq!(s.to_string(), "a*b*c");
    /// # Ok::<(), qce_strategy::BuildError>(())
    /// ```
    pub fn par<I: IntoIterator<Item = Strategy>>(parts: I) -> Result<Self, BuildError> {
        Self::combine(parts, Node::Par)
    }

    fn combine<I: IntoIterator<Item = Strategy>>(
        parts: I,
        make: impl FnOnce(Vec<Node>) -> Node,
    ) -> Result<Self, BuildError> {
        let nodes: Vec<Node> = parts.into_iter().map(|s| s.root).collect();
        if nodes.len() < 2 {
            return Err(BuildError::TooFewOperands { got: nodes.len() });
        }
        Self::from_node(make(nodes))
    }

    /// Canonicalizes and validates an arbitrary [`Node`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateMicroservice`] if a microservice
    /// appears more than once, or [`BuildError::TooFewOperands`] if a
    /// composite node is empty.
    pub fn from_node(node: Node) -> Result<Self, BuildError> {
        if let Node::Seq(children) | Node::Par(children) = &node {
            if children.is_empty() {
                return Err(BuildError::TooFewOperands { got: 0 });
            }
        }
        let root = node.canonicalize();
        let mut leaves = Vec::new();
        root.collect_leaves(&mut leaves);
        let mut seen = BTreeSet::new();
        for id in &leaves {
            if !seen.insert(*id) {
                return Err(BuildError::DuplicateMicroservice(*id));
            }
        }
        Ok(Strategy { root })
    }

    /// Chains `next` after `self` sequentially: `self - next`.
    ///
    /// This is the `es₁ ← es - M'(i)` step of the paper's Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateMicroservice`] if `next` shares a
    /// microservice with `self`.
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::leaf(MsId(0)).then(Strategy::leaf(MsId(1)))?;
    /// assert_eq!(s.to_string(), "a-b");
    /// # Ok::<(), qce_strategy::BuildError>(())
    /// ```
    pub fn then(self, next: Strategy) -> Result<Self, BuildError> {
        Self::from_node(Node::Seq(vec![self.root, next.root]))
    }

    /// Races `other` in parallel with `self`: `(self) * other`.
    ///
    /// This is the `es₂ ← (es) * M'(i)` step of the paper's Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateMicroservice`] if `other` shares a
    /// microservice with `self`.
    ///
    /// ```
    /// use qce_strategy::Strategy;
    /// let s = Strategy::parse("a-b")?.race(Strategy::parse("c")?)?;
    /// assert_eq!(s.to_string(), "c*(a-b)");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn race(self, other: Strategy) -> Result<Self, BuildError> {
        Self::from_node(Node::Par(vec![self.root, other.root]))
    }

    /// The canonical root node of the strategy tree.
    #[must_use]
    pub fn node(&self) -> &Node {
        &self.root
    }

    /// Number of microservices in the strategy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.root.leaf_count()
    }

    /// Always `false`: a strategy contains at least one microservice.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tree depth; a single microservice has depth 1.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Ids of the microservices in the strategy, left to right.
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::parse("b-a*c").unwrap();
    /// assert_eq!(s.leaves(), vec![MsId(1), MsId(0), MsId(2)]);
    /// ```
    #[must_use]
    pub fn leaves(&self) -> Vec<MsId> {
        let mut out = Vec::new();
        self.root.collect_leaves(&mut out);
        out
    }

    /// Returns `true` if the strategy uses the given microservice.
    #[must_use]
    pub fn contains(&self, id: MsId) -> bool {
        self.leaves().contains(&id)
    }

    /// Returns `true` for a pure fail-over strategy (`a-b-…` or a single
    /// microservice) — one of MOLE's two predefined patterns.
    #[must_use]
    pub fn is_failover(&self) -> bool {
        match &self.root {
            Node::Leaf(_) => true,
            Node::Seq(children) => children.iter().all(|c| matches!(c, Node::Leaf(_))),
            Node::Par(_) => false,
        }
    }

    /// Returns `true` for a pure speculative-parallel strategy (`a*b*…` or a
    /// single microservice) — the other predefined MOLE pattern.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        match &self.root {
            Node::Leaf(_) => true,
            Node::Par(children) => children.iter().all(|c| matches!(c, Node::Leaf(_))),
            Node::Seq(_) => false,
        }
    }

    /// Returns a copy of the strategy with every microservice id rewritten
    /// through `f`, re-canonicalized under the new ids.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateMicroservice`] if `f` maps two distinct
    /// ids to the same id.
    ///
    /// ```
    /// use qce_strategy::{MsId, Strategy};
    /// let s = Strategy::parse("a-b").unwrap();
    /// let shifted = s.map_ids(|id| MsId(id.index() + 3)).unwrap();
    /// assert_eq!(shifted.to_string(), "d-e");
    /// ```
    pub fn map_ids(&self, f: impl Fn(MsId) -> MsId) -> Result<Self, BuildError> {
        Self::from_node(self.root.map_ids(&f))
    }
}

impl From<MsId> for Strategy {
    fn from(id: MsId) -> Self {
        Strategy::leaf(id)
    }
}

impl std::str::FromStr for Strategy {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::parse(s)
    }
}

impl Serialize for Strategy {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Strategy {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        Strategy::parse(&text).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: usize) -> Strategy {
        Strategy::leaf(MsId(i))
    }

    #[test]
    fn leaf_properties() {
        let s = leaf(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.depth(), 1);
        assert!(s.is_failover() && s.is_parallel());
        assert!(s.contains(MsId(0)));
        assert!(!s.contains(MsId(1)));
        assert!(!s.is_empty());
    }

    #[test]
    fn seq_requires_two_operands() {
        assert_eq!(
            Strategy::seq([leaf(0)]).unwrap_err(),
            BuildError::TooFewOperands { got: 1 }
        );
        assert_eq!(
            Strategy::par(std::iter::empty()).unwrap_err(),
            BuildError::TooFewOperands { got: 0 }
        );
    }

    #[test]
    fn duplicate_microservice_rejected() {
        assert_eq!(
            Strategy::seq([leaf(0), leaf(0)]).unwrap_err(),
            BuildError::DuplicateMicroservice(MsId(0))
        );
        let ab = Strategy::par([leaf(0), leaf(1)]).unwrap();
        assert!(ab.clone().then(leaf(1)).is_err());
        let cd = Strategy::seq([leaf(2), leaf(0)]).unwrap();
        assert!(ab.race(cd).is_err());
    }

    #[test]
    fn observation_1_parallel_commutative_sequential_not() {
        let ab_par = Strategy::par([leaf(0), leaf(1)]).unwrap();
        let ba_par = Strategy::par([leaf(1), leaf(0)]).unwrap();
        assert_eq!(ab_par, ba_par);

        let ab_seq = Strategy::seq([leaf(0), leaf(1)]).unwrap();
        let ba_seq = Strategy::seq([leaf(1), leaf(0)]).unwrap();
        assert_ne!(ab_seq, ba_seq);
    }

    #[test]
    fn observation_2_associativity() {
        // a-b-c == (a-b)-c == a-(b-c)
        let flat = Strategy::seq([leaf(0), leaf(1), leaf(2)]).unwrap();
        let left = Strategy::seq([Strategy::seq([leaf(0), leaf(1)]).unwrap(), leaf(2)]).unwrap();
        let right = Strategy::seq([leaf(0), Strategy::seq([leaf(1), leaf(2)]).unwrap()]).unwrap();
        assert_eq!(flat, left);
        assert_eq!(flat, right);

        // a*b*c == (a*b)*c == a*(b*c)
        let flat = Strategy::par([leaf(0), leaf(1), leaf(2)]).unwrap();
        let left = Strategy::par([Strategy::par([leaf(0), leaf(1)]).unwrap(), leaf(2)]).unwrap();
        let right = Strategy::par([leaf(0), Strategy::par([leaf(1), leaf(2)]).unwrap()]).unwrap();
        assert_eq!(flat, left);
        assert_eq!(flat, right);
    }

    #[test]
    fn observation_3_grouping_is_structural() {
        // (a-b)*c != a-b*c
        let grouped = Strategy::par([Strategy::seq([leaf(0), leaf(1)]).unwrap(), leaf(2)]).unwrap();
        let ungrouped =
            Strategy::seq([leaf(0), Strategy::par([leaf(1), leaf(2)]).unwrap()]).unwrap();
        assert_ne!(grouped, ungrouped);

        // a-(b*c) == a-b*c : the Par grouping inside Seq needs no parens
        let explicit =
            Strategy::seq([leaf(0), Strategy::par([leaf(1), leaf(2)]).unwrap()]).unwrap();
        assert_eq!(explicit, ungrouped);
    }

    #[test]
    fn canonical_invariants_hold() {
        let s = Strategy::seq([
            leaf(3),
            Strategy::seq([leaf(1), Strategy::par([leaf(0), leaf(2)]).unwrap()]).unwrap(),
        ])
        .unwrap();
        // Flattened: Seq[d, b, a*c]
        match s.node() {
            Node::Seq(children) => {
                assert_eq!(children.len(), 3);
                assert!(children.iter().all(|c| !matches!(c, Node::Seq(_))));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
        assert_eq!(s.leaves(), vec![MsId(3), MsId(1), MsId(0), MsId(2)]);
    }

    #[test]
    fn failover_and_parallel_classification() {
        let fo = Strategy::seq([leaf(0), leaf(1), leaf(2)]).unwrap();
        assert!(fo.is_failover());
        assert!(!fo.is_parallel());
        let sp = Strategy::par([leaf(0), leaf(1), leaf(2)]).unwrap();
        assert!(sp.is_parallel());
        assert!(!sp.is_failover());
        let mixed = Strategy::seq([leaf(0), Strategy::par([leaf(1), leaf(2)]).unwrap()]).unwrap();
        assert!(!mixed.is_failover());
        assert!(!mixed.is_parallel());
    }

    #[test]
    fn depth_and_len() {
        let s = Strategy::par([
            leaf(2),
            Strategy::seq([
                Strategy::par([leaf(0), leaf(1)]).unwrap(),
                Strategy::par([leaf(3), leaf(4)]).unwrap(),
            ])
            .unwrap(),
        ])
        .unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.depth(), 4);
    }

    #[test]
    fn map_ids_round_trip_and_collision() {
        let s = Strategy::seq([leaf(0), Strategy::par([leaf(1), leaf(2)]).unwrap()]).unwrap();
        let shifted = s.map_ids(|id| MsId(id.index() + 10)).unwrap();
        let back = shifted.map_ids(|id| MsId(id.index() - 10)).unwrap();
        assert_eq!(s, back);
        assert!(s.map_ids(|_| MsId(0)).is_err());
    }

    #[test]
    fn from_msid_conversion() {
        let s: Strategy = MsId(4).into();
        assert_eq!(s, leaf(4));
    }

    #[test]
    fn serde_as_expression_string() {
        let s = Strategy::par([Strategy::seq([leaf(0), leaf(1)]).unwrap(), leaf(2)]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"c*(a-b)\"");
        let back: Strategy = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert!(serde_json::from_str::<Strategy>("\"a-a\"").is_err());
    }

    #[test]
    fn node_ordering_is_deterministic() {
        let a = Node::Leaf(MsId(0));
        let seq = Node::Seq(vec![Node::Leaf(MsId(1)), Node::Leaf(MsId(2))]);
        let par = Node::Par(vec![Node::Leaf(MsId(3)), Node::Leaf(MsId(4))]);
        assert!(a < seq);
        assert!(seq < par);
    }
}
