//! The correctness gate: a seeded sample of dashboard and pivot answers is
//! recomputed by the serial reference executor on the snapshot the answer
//! was served from, through the same session view, and must match cell
//! for cell.

use crate::load::Kind;
use sdwp::olap::{Cube, InstanceView, Query, QueryEngine, QueryResult};
use std::sync::Arc;

/// An answer as the web facade renders it: columns, rows, facts matched.
pub type Rendered = (Vec<String>, Vec<Vec<String>>, usize);

/// Renders a result exactly like `WebResponse::Table`.
pub fn render(result: &QueryResult) -> Rendered {
    let columns = result
        .key_names
        .iter()
        .chain(result.value_names.iter())
        .cloned()
        .collect();
    let rows = result
        .rows
        .iter()
        .map(|row| {
            row.keys
                .iter()
                .chain(row.values.iter())
                .map(ToString::to_string)
                .collect()
        })
        .collect();
    (columns, rows, result.facts_matched)
}

/// One sampled answer and what is needed to recompute it. The snapshot
/// is read just before the request was sent and just after its answer
/// arrived; the answer must equal the reference on one of the two.
pub struct Check {
    pub kind: Kind,
    pub queries: Vec<Query>,
    pub view: Arc<InstanceView>,
    pub before: (u64, Arc<Cube>),
    pub after: (u64, Arc<Cube>),
    pub answers: Vec<Rendered>,
}

/// The gate's findings over a run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub answers: usize,
    pub panels: usize,
    /// Answers served while two or more snapshots were published, whose
    /// generation cannot be pinned down from outside; reported, not
    /// counted as passing.
    pub indeterminate: usize,
    pub errors: Vec<String>,
}

pub fn verify(checks: &[Check]) -> Verdict {
    let reference = QueryEngine::new();
    let mut verdict = Verdict::default();
    for check in checks {
        verdict.answers += 1;
        for (panel, (query, answer)) in check.queries.iter().zip(&check.answers).enumerate() {
            verdict.panels += 1;
            let expected = |cube: &Cube| {
                reference
                    .execute_serial_with_view(cube, query, &check.view)
                    .map(|result| render(&result))
            };
            if expected(&check.before.1).as_ref() == Ok(answer) {
                continue;
            }
            if check.after.0 != check.before.0 && expected(&check.after.1).as_ref() == Ok(answer) {
                continue;
            }
            if check.after.0 > check.before.0 + 1 {
                verdict.indeterminate += 1;
                continue;
            }
            verdict.errors.push(format!(
                "{} panel {panel} at generation {}: answer differs from the serial reference ({} rows vs {:?})",
                check.kind.name(),
                check.before.0,
                answer.1.len(),
                expected(&check.before.1).map(|rendered| rendered.1.len()),
            ));
        }
    }
    verdict
}
