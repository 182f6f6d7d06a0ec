//! Table 2 — cosine similarity of error propagation between small and
//! large scales ("4V64", "8V64").

use crate::campaign::{CampaignRunner, ErrorSpec};
use crate::experiments::{ExperimentConfig, LARGE_SCALE};
use crate::report::{num, Table};
use resilim_apps::App;
use resilim_core::cosine_similarity;
use serde::{Deserialize, Serialize};

/// One Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Workload label.
    pub app: String,
    /// Small scale compared against the large scale.
    pub small: usize,
    /// Large scale.
    pub large: usize,
    /// Cosine similarity of the small-scale propagation vector and the
    /// grouped large-scale vector.
    pub similarity: f64,
}

/// The full Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// Rows: for each app, 4V64 then 8V64.
    pub rows: Vec<Table2Row>,
}

/// Regenerate Table 2 from 1-error campaigns at 4, 8 and 64 ranks.
///
/// The apps run one after another in `App::ALL` order; each campaign
/// runs its trials on every core, so nothing overlaps it and its
/// `campaign_end` counts are its own.
pub fn table2(runner: &CampaignRunner, cfg: &ExperimentConfig) -> Table2 {
    let rows_for = |app: App| -> Vec<Table2Row> {
        let campaign_at = |procs: usize| {
            runner.run(&cfg.campaign(app.default_spec(), procs, ErrorSpec::OneParallel))
        };
        let large = campaign_at(LARGE_SCALE);
        let mut rows = Vec::with_capacity(2);
        for small_scale in [4usize, 8] {
            let small = campaign_at(small_scale);
            let similarity = cosine_similarity(&small.prop.r_vec(), &large.prop.group(small_scale));
            rows.push(Table2Row {
                app: app.name().to_string(),
                small: small_scale,
                large: LARGE_SCALE,
                similarity,
            });
        }
        rows
    };
    Table2 {
        rows: App::ALL.into_iter().flat_map(rows_for).collect(),
    }
}

impl Table2 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 2: propagation similarity between small and large scales",
            &["benchmark", "comparison", "cosine similarity"],
        );
        for row in &self.rows {
            t.row(vec![
                row.app.clone(),
                format!("{}V{}", row.small, row.large),
                num(row.similarity),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_small_campaign_similarity() {
        resilim_core::verifies!(TABLE2, O3);
        // Full 64-rank campaigns are exercised by `tests/paper_shapes.rs`
        // and the CLI; unit test the wiring at reduced scales with few tests.
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 25,
            seed: 7,
            ..Default::default()
        };
        // Compare 2 vs 8 for a single cheap app.
        let app = App::Lu;
        let small = runner.run(&cfg.campaign(app.default_spec(), 2, ErrorSpec::OneParallel));
        let large = runner.run(&cfg.campaign(app.default_spec(), 8, ErrorSpec::OneParallel));
        let sim = cosine_similarity(&small.prop.r_vec(), &large.prop.group(2));
        assert!((0.0..=1.0).contains(&sim));
        // LU's wavefront propagation is strongly bimodal at both scales,
        // so even with few tests the grouped shapes correlate.
        assert!(sim > 0.5, "sim = {sim}");
    }
}
