//! # esp-bench — experiment harness
//!
//! Shared setup for the experiment binaries that regenerate every table and
//! figure of the paper (see DESIGN.md §4 for the index), plus small
//! formatting helpers so each binary prints the same rows/series the paper
//! reports.
//!
//! The experiment device keeps the paper's *shape* — 8 channels × 4 TLC
//! chips, 16 KB pages of four 4 KB subpages, 20 % subpage region, 62.5 %
//! preconditioning fill — at a reduced capacity (512 MiB) so every figure
//! regenerates in seconds. The paper argues (§5) that capacity does not
//! distort the results; the `--big` flag on each binary runs the 4 GiB
//! geometry for confirmation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use esp_core::{CgmFtl, FgmFtl, Ftl, FtlConfig, SubFtl};
use esp_nand::Geometry;
use esp_sim::Json;

pub use esp_core::BenchReport;

/// The reduced-capacity experiment device (512 MiB, paper shape).
#[must_use]
pub fn experiment_geometry() -> Geometry {
    Geometry {
        channels: 8,
        chips_per_channel: 4,
        blocks_per_chip: 16,
        pages_per_block: 64,
        subpages_per_page: 4,
        subpage_bytes: 4096,
    }
}

/// The full-size geometry (4 GiB, the library default) for `--big` runs.
#[must_use]
fn big_geometry() -> Geometry {
    Geometry::paper_default()
}

/// The experiment FTL configuration over the chosen geometry.
#[must_use]
pub fn experiment_config(big: bool) -> FtlConfig {
    FtlConfig {
        geometry: if big {
            big_geometry()
        } else {
            experiment_geometry()
        },
        ..FtlConfig::paper_default()
    }
}

/// Reads the `--big` flag from the process arguments.
#[must_use]
pub fn big_flag() -> bool {
    std::env::args().any(|a| a == "--big")
}

/// Reads an optional `--gc-policy <name>` flag from the process arguments
/// (greedy when absent), so the CI smoke matrix can rerun a figure under
/// every victim-selection policy without a dedicated binary per policy.
///
/// # Panics
///
/// Panics when the flag has no value or names an unknown policy.
#[must_use]
pub fn gc_policy_flag() -> esp_core::GcPolicyKind {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--gc-policy" {
            let v = args.next().expect("--gc-policy needs a value");
            return v
                .parse()
                .unwrap_or_else(|e| panic!("bad --gc-policy `{v}`: {e}"));
        }
    }
    esp_core::GcPolicyKind::default()
}

/// The paper's preconditioning ratio: 10 GB filled on a 16 GB device.
pub const FILL_FRACTION: f64 = 0.625;

/// Workload footprint as a fraction of logical capacity, matching the
/// preconditioned share of the device.
#[must_use]
pub fn footprint_sectors(config: &FtlConfig) -> u64 {
    (config.logical_sectors() as f64 * FILL_FRACTION) as u64
}

/// Which FTL to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// Coarse-grained mapping baseline.
    Cgm,
    /// Fine-grained mapping baseline.
    Fgm,
    /// The paper's ESP-aware FTL.
    Sub,
}

impl FtlKind {
    /// All three, in the paper's presentation order.
    pub const ALL: [FtlKind; 3] = [FtlKind::Cgm, FtlKind::Fgm, FtlKind::Sub];

    /// Display name as in the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FtlKind::Cgm => "cgmFTL",
            FtlKind::Fgm => "fgmFTL",
            FtlKind::Sub => "subFTL",
        }
    }

    /// Builds a boxed FTL of this kind.
    #[must_use]
    pub fn build(&self, config: &FtlConfig) -> Box<dyn Ftl> {
        match self {
            FtlKind::Cgm => Box::new(CgmFtl::new(config)),
            FtlKind::Fgm => Box::new(FgmFtl::new(config)),
            FtlKind::Sub => Box::new(SubFtl::new(config)),
        }
    }
}

/// Starts a BENCH report for an experiment binary, stamped with the
/// device shape so `benchcmp` refuses nothing silently: reports produced
/// at different scales still compare, but the geometry is on record.
#[must_use]
pub fn bench_report(name: &str, cfg: &FtlConfig, big: bool) -> BenchReport {
    let mut b = BenchReport::new(name);
    b.meta("geometry", Json::from(format!("{}", cfg.geometry)));
    b.meta("big", Json::from(big));
    b
}

/// Writes `BENCH_<name>.json` into `$BENCH_OUT_DIR` (or the working
/// directory) and prints the path. An I/O failure is reported on stderr
/// but does not abort the experiment — the human-readable tables above
/// are the primary output.
pub fn write_bench(b: &BenchReport) {
    match b.write_default() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write BENCH report: {e}"),
    }
}

/// A fixed-width text table that prints aligned rows (the "figure data" the
/// paper plots).
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>w$}", s, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_workload::{generate, SyntheticConfig};

    #[test]
    fn experiment_config_is_valid() {
        experiment_config(false).validate().unwrap();
        experiment_config(true).validate().unwrap();
    }

    #[test]
    fn footprint_is_inside_logical_space() {
        let cfg = experiment_config(false);
        assert!(footprint_sectors(&cfg) < cfg.logical_sectors());
    }

    #[test]
    fn all_kinds_build_and_run() {
        let cfg = FtlConfig::tiny();
        let trace = generate(&SyntheticConfig {
            footprint_sectors: 64,
            requests: 50,
            ..SyntheticConfig::default()
        });
        for kind in FtlKind::ALL {
            let mut ftl = kind.build(&cfg);
            let report = esp_core::run_trace(ftl.as_mut(), &trace);
            assert_eq!(report.ftl, kind.name());
            assert_eq!(report.requests, 50);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["a", "bench"]);
        t.row(["1", "x"]);
        t.row(["22", "yyyy"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bench"));
        assert!(lines[2].ends_with("x"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }
}
