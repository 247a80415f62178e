//! The scenario-coverage scoreboard: which FaultKinds × lifecycle
//! states × fleet scales have actually been exercised, as a
//! first-class, diffable artifact.
//!
//! Each scenario run contributes one [`CoverageRun`]: the fault kinds
//! it injected, the lifecycle states the fleet passed through, and the
//! scale band of the fleet. A [`Scoreboard`] merges runs — typically
//! across a whole CI job via `coverage.json` — so uncovered
//! fault × state cells are visible per PR instead of silently
//! untested.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use clusterworx::lifecycle::LifecycleState;

use crate::artifact::esc_json;
use crate::fault::KINDS;
use crate::json::{self, Json};

/// Lifecycle state names the scoreboard tracks (the `Failed(_)`
/// reasons collapse into one row).
pub const STATE_SLUGS: [&str; 9] = [
    "Off",
    "PoweringOn",
    "Bios",
    "Cloning",
    "Up",
    "Draining",
    "Halted",
    "Quarantined",
    "Failed",
];

/// Scoreboard name of a lifecycle state.
pub fn state_slug(state: LifecycleState) -> &'static str {
    match state {
        LifecycleState::Off => "Off",
        LifecycleState::PoweringOn => "PoweringOn",
        LifecycleState::Bios => "Bios",
        LifecycleState::Cloning => "Cloning",
        LifecycleState::Up => "Up",
        LifecycleState::Draining => "Draining",
        LifecycleState::Halted => "Halted",
        LifecycleState::Quarantined => "Quarantined",
        LifecycleState::Failed(_) => "Failed",
    }
}

/// Fleet-scale bands, smallest first.
pub const SCALE_BANDS: [&str; 3] = ["small", "medium", "large"];

/// Band a fleet size: `small` < 100 nodes ≤ `medium` < 1000 ≤ `large`.
pub fn scale_band(n_nodes: u32) -> &'static str {
    if n_nodes < 100 {
        "small"
    } else if n_nodes < 1000 {
        "medium"
    } else {
        "large"
    }
}

/// What one scenario run exercised.
#[derive(Debug, Clone, Default)]
pub struct CoverageRun {
    /// Scale band of the fleet.
    pub scale: &'static str,
    /// Fault kinds the manifest injected.
    pub faults: BTreeSet<&'static str>,
    /// Lifecycle states any node passed through.
    pub states: BTreeSet<&'static str>,
}

impl CoverageRun {
    /// The `coverage` object embedded in `result.json`.
    pub fn to_json(&self) -> String {
        let list = |xs: &BTreeSet<&'static str>| {
            xs.iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"scale\":\"{}\",\"faults\":[{}],\"states\":[{}]}}",
            self.scale,
            list(&self.faults),
            list(&self.states)
        )
    }
}

#[derive(Debug, Clone, Default)]
struct Cell {
    runs: u64,
    scales: BTreeSet<String>,
}

/// Merged coverage across many runs: one cell per (fault, state) pair
/// that some run exercised together.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    runs: u64,
    cells: BTreeMap<(String, String), Cell>,
}

impl Scoreboard {
    /// An empty scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// Runs merged so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Covered (fault, state) cells so far.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Fold one run in: every injected fault is credited against every
    /// state the fleet visited during that run, at the run's scale.
    pub fn record(&mut self, run: &CoverageRun) {
        self.runs += 1;
        for f in &run.faults {
            for s in &run.states {
                let cell = self
                    .cells
                    .entry((f.to_string(), s.to_string()))
                    .or_default();
                cell.runs += 1;
                cell.scales.insert(run.scale.to_string());
            }
        }
    }

    /// Fault kinds no merged run has injected.
    pub fn uncovered_faults(&self) -> Vec<&'static str> {
        KINDS
            .iter()
            .map(|k| k.slug)
            .filter(|f| !self.cells.keys().any(|(cf, _)| cf == f))
            .collect()
    }

    /// Lifecycle states no merged run has observed.
    pub fn uncovered_states(&self) -> Vec<&'static str> {
        STATE_SLUGS
            .iter()
            .copied()
            .filter(|s| !self.cells.keys().any(|(_, cs)| cs == s))
            .collect()
    }

    /// Serialize as `coverage.json` (`cwx-coverage-v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"cwx-coverage-v1\",\"runs\":{},\"fault_kinds\":{},\"states\":{},\"covered_cells\":{}",
            self.runs,
            KINDS.len(),
            STATE_SLUGS.len(),
            self.cells.len()
        );
        out.push_str(",\"cells\":[");
        for (i, ((fault, state), cell)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let scales = cell
                .scales
                .iter()
                .map(|s| format!("\"{}\"", esc_json(s)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"fault\":\"{}\",\"state\":\"{}\",\"runs\":{},\"scales\":[{scales}]}}",
                esc_json(fault),
                esc_json(state),
                cell.runs
            );
        }
        out.push(']');
        let list = |xs: Vec<&'static str>| {
            xs.iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(
            out,
            ",\"uncovered_faults\":[{}],\"uncovered_states\":[{}]}}",
            list(self.uncovered_faults()),
            list(self.uncovered_states())
        );
        out
    }

    /// Parse a `coverage.json` previously written by [`Self::to_json`]
    /// so CI can merge a new run into an existing scoreboard file.
    pub fn from_json(text: &str) -> Result<Scoreboard, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some("cwx-coverage-v1") {
            return Err("not a cwx-coverage-v1 document".to_string());
        }
        let runs = doc
            .get("runs")
            .and_then(Json::as_u64)
            .ok_or("missing `runs`")?;
        let mut cells = BTreeMap::new();
        for cell in doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing `cells`")?
        {
            let field = |k: &str| {
                cell.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("cell missing `{k}`"))
            };
            let scales = cell
                .get("scales")
                .and_then(Json::as_arr)
                .ok_or("cell missing `scales`")?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect();
            cells.insert(
                (field("fault")?, field("state")?),
                Cell {
                    runs: cell.get("runs").and_then(Json::as_u64).unwrap_or(1),
                    scales,
                },
            );
        }
        Ok(Scoreboard { runs, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scale: &'static str, faults: &[&'static str], states: &[&'static str]) -> CoverageRun {
        CoverageRun {
            scale,
            faults: faults.iter().copied().collect(),
            states: states.iter().copied().collect(),
        }
    }

    #[test]
    fn records_cross_product_and_merges() {
        let mut b = Scoreboard::new();
        b.record(&run("small", &["kernel-panic"], &["Off", "Up"]));
        b.record(&run("medium", &["kernel-panic", "agent-crash"], &["Up"]));
        assert_eq!(b.runs(), 2);
        assert_eq!(b.cells(), 3); // panic×Off, panic×Up, crash×Up
        assert!(b.uncovered_faults().contains(&"psu-failure"));
        assert!(b.uncovered_states().contains(&"Quarantined"));
        assert!(!b.uncovered_faults().contains(&"agent-crash"));
        // federation kinds are rows of the same grid
        assert!(b.uncovered_faults().contains(&"cluster-heal"));
        b.record(&run("large", &["cluster-disconnect"], &["Up"]));
        assert!(!b.uncovered_faults().contains(&"cluster-disconnect"));
        assert!(b.to_json().contains("\"fault_kinds\":20,"));
    }

    #[test]
    fn json_round_trip_preserves_the_scoreboard() {
        let mut b = Scoreboard::new();
        b.record(&run("small", &["agent-hang"], &["Up", "Bios"]));
        b.record(&run("large", &["agent-hang"], &["Up"]));
        let text = b.to_json();
        let back = Scoreboard::from_json(&text).expect("parses own output");
        assert_eq!(back.runs(), 2);
        assert_eq!(back.cells(), 2);
        assert_eq!(back.to_json(), text, "round trip is byte-stable");
        assert!(text.contains("\"scales\":[\"large\",\"small\"]"), "{text}");
    }

    #[test]
    fn scale_bands_partition_fleet_sizes() {
        assert_eq!(scale_band(60), "small");
        assert_eq!(scale_band(400), "medium");
        assert_eq!(scale_band(10_000), "large");
    }

    #[test]
    fn from_json_rejects_other_documents() {
        assert!(Scoreboard::from_json("{}").is_err());
        assert!(Scoreboard::from_json("{\"schema\":\"cwx-result-v1\"}").is_err());
        assert!(Scoreboard::from_json("not json").is_err());
    }
}
