//! Reproduction of **Table I**: the number of execution strategies for `M`
//! equivalent microservices.
//!
//! Three columns are produced:
//!
//! * the paper's published numbers,
//! * our reconstruction of the paper's counting procedure (which misses
//!   some `*`-commutativity duplicates between parenthesized operands),
//! * the semantically distinct counts under the paper's own
//!   Observations 1–3, cross-checked by explicit enumeration.

use std::path::Path;

use qce_strategy::enumerate::{count_full, count_with_subsets, paper, StrategyIter, MAX_COUNT_M};
use qce_strategy::{IdSet, MsId};

use crate::report::Report;

/// Published Table I values for `F(M)`, M = 2..6.
pub const PAPER_FULL: [(usize, u128); 5] = [(2, 3), (3, 19), (4, 207), (5, 3211), (6, 64743)];

/// Published Table I values for `F'(M)`, M = 2..6.
pub const PAPER_SUBSETS: [(usize, u128); 5] = [(2, 5), (3, 31), (4, 305), (5, 4471), (6, 87545)];

/// Runs the Table I reproduction and writes `table1.tsv`.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
pub fn run(reports: &Path) -> std::io::Result<()> {
    let mut report = Report::new(
        "Table I: execution strategies for M equivalent microservices",
        &[
            "M",
            "paper F(M)",
            "reconstructed F(M)",
            "semantic F(M)",
            "enumerated",
            "paper F'(M)",
            "reconstructed F'(M)",
            "semantic F'(M)",
        ],
    );

    for (i, &(m, paper_full)) in PAPER_FULL.iter().enumerate() {
        // Cross-check by explicit enumeration.
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let enumerated = IdSet::new(&ids).and_then(StrategyIter::over);
        report.row([
            m.to_string(),
            paper_full.to_string(),
            show(paper::count_table1(m)),
            show(count_full(m)),
            show(enumerated.ok().map(Iterator::count)),
            PAPER_SUBSETS[i].1.to_string(),
            show(paper::count_table1_subsets(m)),
            show(count_with_subsets(m)),
        ]);
    }

    report.note(
        "reconstructed = the paper's dedup (sorts only single-microservice \
         operands of '*'); exact match for M<=5, -0.56% at M=6",
    );
    report.note(
        "semantic = distinct under the paper's own Observations 1-3; \
         e.g. (a-b)*(c-d) == (c-d)*(a-b) is counted once",
    );
    report.note(format!(
        "counting recurrences stay exact in u128 up to M = {MAX_COUNT_M}"
    ));
    report.emit(reports, "table1")?;
    Ok(())
}

/// A count's cell: `-` where there is none past the counting limit.
fn show(count: Option<impl ToString>) -> String {
    count.map_or_else(|| "-".to_string(), |count| count.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_matches_paper_up_to_m5() {
        for &(m, expected) in &PAPER_FULL[..4] {
            assert_eq!(paper::count_table1(m), Some(expected), "F({m})");
        }
        for &(m, expected) in &PAPER_SUBSETS[..4] {
            assert_eq!(paper::count_table1_subsets(m), Some(expected), "F'({m})");
        }
    }

    #[test]
    fn m6_reconstruction_is_within_one_percent() {
        let published = PAPER_FULL[4].1 as f64;
        let reconstructed = paper::count_table1(6).unwrap() as f64;
        assert!(((published - reconstructed) / published).abs() < 0.01);
    }

    #[test]
    fn semantic_counts_never_exceed_paper_counts() {
        for m in 2..=6 {
            assert!(count_full(m) <= paper::count_table1(m));
        }
    }

    #[test]
    fn run_writes_report() {
        let dir = std::env::temp_dir().join(format!("qce-table1-{}", std::process::id()));
        run(&dir).unwrap();
        let tsv = std::fs::read_to_string(dir.join("table1.tsv")).unwrap();
        assert!(tsv.contains("64743"));
        assert!(tsv.contains("51303"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
