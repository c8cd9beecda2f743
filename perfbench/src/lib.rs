//! # perfbench
//!
//! One command that measures treelab end to end and per layer: building
//! labels for a tree corpus, serving routed distance queries from the
//! forest, and keeping the forest current under churn.  See `README.md` for
//! the workloads, the metrics and how to run it.

#![warn(missing_docs)]

pub mod alloc;
pub mod engine;
pub mod inputs;
pub mod stats;
pub mod trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (`{"name": {"value": v, "unit": u}, ...}`).
pub fn result_json(outcome: &engine::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
