//! Machine-readable `BENCH_*.json` reports.
//!
//! Every espsim `--json` run and every `esp-bench` binary emits the same
//! schema-versioned document (see DESIGN.md §8 for the full field list):
//!
//! ```json
//! {
//!   "schema": "esp-bench",
//!   "schema_version": 1,
//!   "name": "fig2_small_writes",
//!   "meta": { "geometry": "8x4x16x64", "seed": 42 },
//!   "runs": [ { "label": "...", "ftl": "subFTL", "iops": ..., ... } ]
//! }
//! ```
//!
//! [`BenchReport`] assembles the document from [`RunReport`]s,
//! [`validate_bench`] checks a parsed document against the schema (the
//! `benchcmp` tool and the test suite both call it), and the schema is
//! versioned: additive changes keep the version, field removals or
//! renames bump it.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use esp_sim::{Json, LatencySummary, TraceEvent};

use crate::stats::RunReport;
use crate::tenant::{TenantReport, TenantRunReport};

/// Version of the `BENCH_*.json` schema this library emits.
///
/// Policy: adding fields is backward-compatible and does **not** bump the
/// version; removing or renaming any field listed in
/// [`REQUIRED_RUN_FIELDS`] (or changing a unit) does.
///
/// History:
/// * **v3** — multi-tenant replays add an optional `tenants` array to a
///   run entry (per-tenant QoS settings, throughput, response
///   percentiles and SLO attainment; omitted for single-workload runs,
///   so v1/v2 documents still validate).
/// * **v2** — open-arrival replays add a `latency.response` block
///   (arrival → done response times; omitted for closed-loop runs, so
///   the member is optional and v1 documents still validate).
/// * **v1** — initial schema.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// The `schema` discriminator string every report carries.
pub const BENCH_SCHEMA_NAME: &str = "esp-bench";

/// Dotted paths every run entry must contain for the document to
/// validate. `benchcmp` additionally diffs the numeric subset of these.
pub const REQUIRED_RUN_FIELDS: &[&str] = &[
    "label",
    "ftl",
    "requests",
    "makespan_ns",
    "iops",
    "write_bandwidth_mbps",
    "waf.small_request",
    "waf.total",
    "erases",
    "programs.full",
    "programs.subpage",
    "gc.invocations",
    "latency.all.count",
    "latency.all.p50_ns",
    "latency.all.p95_ns",
    "latency.all.p99_ns",
    "latency.all.p999_ns",
    "latency.read.p50_ns",
    "latency.write.p50_ns",
    "read_faults.total",
];

/// Renders a [`LatencySummary`] as the standard latency block
/// (`count`/`mean_ns`/`min_ns`/`max_ns`/`p50_ns`/`p95_ns`/`p99_ns`/
/// `p999_ns`).
#[must_use]
fn latency_json(s: &LatencySummary) -> Json {
    Json::obj([
        ("count", Json::from(s.count)),
        ("mean_ns", Json::from(s.mean)),
        ("min_ns", Json::from(s.min)),
        ("max_ns", Json::from(s.max)),
        ("p50_ns", Json::from(s.p50)),
        ("p95_ns", Json::from(s.p95)),
        ("p99_ns", Json::from(s.p99)),
        ("p999_ns", Json::from(s.p999)),
    ])
}

/// Renders one [`RunReport`] as a run entry of the BENCH schema.
#[must_use]
pub fn run_json(label: &str, r: &RunReport) -> Json {
    let s = &r.stats;
    // `response` (arrival → done, host queueing included) appears only
    // for open-arrival replays; closed-loop runs record no response
    // samples and omit the member (schema v2).
    let mut latency = vec![
        ("all", latency_json(&r.latency().summary())),
        ("read", latency_json(&r.read_latency_summary())),
        ("write", latency_json(&r.write_latency_summary())),
    ];
    let response = r.response_latency.summary();
    if response.count > 0 {
        latency.push(("response", latency_json(&response)));
    }
    Json::obj([
        ("label", Json::from(label)),
        ("ftl", Json::from(r.ftl)),
        ("requests", Json::from(r.requests)),
        ("makespan_ns", Json::from(r.makespan.as_nanos())),
        ("iops", Json::from(r.iops)),
        ("write_bandwidth_mbps", Json::from(r.write_bandwidth_mbps())),
        ("latency", Json::obj(latency)),
        (
            "waf",
            Json::obj([
                ("small_request", Json::from(s.small_request_waf())),
                ("total", Json::from(s.total_waf())),
            ]),
        ),
        ("erases", Json::from(r.erases)),
        (
            "programs",
            Json::obj([
                ("full", Json::from(r.programs.0)),
                ("subpage", Json::from(r.programs.1)),
            ]),
        ),
        (
            "host",
            Json::obj([
                ("write_requests", Json::from(s.host_write_requests)),
                ("write_sectors", Json::from(s.host_write_sectors)),
                ("read_requests", Json::from(s.host_read_requests)),
                ("read_sectors", Json::from(s.host_read_sectors)),
                ("small_write_requests", Json::from(s.small_write_requests)),
            ]),
        ),
        (
            "gc",
            Json::obj([
                ("invocations", Json::from(s.gc_invocations)),
                ("subpage_region", Json::from(s.gc_subpage_region)),
                ("copied_sectors", Json::from(s.gc_copied_sectors)),
                ("flash_sectors", Json::from(s.gc_flash_sectors)),
                ("rmw_operations", Json::from(s.rmw_operations)),
            ]),
        ),
        (
            "sub_region",
            Json::obj([
                ("lap_migrations", Json::from(s.lap_migrations)),
                ("cold_evictions", Json::from(s.cold_evictions)),
                ("retention_evictions", Json::from(s.retention_evictions)),
                ("wear_swaps", Json::from(s.wear_swaps)),
            ]),
        ),
        (
            "wear",
            Json::obj([
                ("min_pe", Json::from(r.wear.min_pe)),
                ("max_pe", Json::from(r.wear.max_pe)),
                ("mean_pe", Json::from(r.wear.mean_pe)),
                ("delta_pe", Json::from(r.wear.delta_pe())),
                ("shallow_erases", Json::from(r.wear.shallow_erases)),
                ("level_migrations", Json::from(s.wear_level_migrations)),
            ]),
        ),
        (
            "end_of_life",
            Json::obj([
                ("op_shrinks", Json::from(s.op_shrinks)),
                ("trips", Json::from(s.end_of_life_trips)),
                ("writes_dropped", Json::from(s.writes_dropped_end_of_life)),
            ]),
        ),
        (
            "read_faults",
            Json::obj([
                ("total", Json::from(s.read_faults)),
                ("destroyed", Json::from(s.read_faults_destroyed)),
                ("retention", Json::from(s.read_faults_retention)),
                ("torn", Json::from(s.read_faults_torn)),
                ("injected", Json::from(s.read_faults_injected)),
            ]),
        ),
        (
            "reliability",
            Json::obj([
                ("recovered_reads", Json::from(r.recovered_reads)),
                ("retry_steps", Json::from(r.retry_steps)),
                ("soft_decodes", Json::from(r.soft_decodes)),
                ("read_reclaims", Json::from(s.read_reclaims)),
                ("disturb_scrubs", Json::from(s.disturb_scrubs)),
            ]),
        ),
        (
            "faults",
            Json::obj([
                ("program_failures", Json::from(s.program_failures)),
                ("erase_failures", Json::from(s.erase_failures)),
                ("write_retries", Json::from(s.write_retries)),
                ("blocks_retired", Json::from(s.blocks_retired)),
            ]),
        ),
    ])
}

/// Renders one [`TenantReport`] as a row of a run entry's `tenants`
/// array (schema v3).
///
/// Always-present members: `name`, `weight`, `rate`, `burst`,
/// `requests`, `sectors`, `iops`. A `response` latency block appears
/// when the tenant recorded response samples (open tenants only), and an
/// `slo` object (`target_ns`/`samples`/`good`/`attainment`) appears when
/// the tenant has an SLO configured.
#[must_use]
fn tenant_json(t: &TenantReport) -> Json {
    let mut members = vec![
        ("name".to_string(), Json::from(t.name.as_str())),
        ("weight".to_string(), Json::from(u64::from(t.weight))),
        ("rate".to_string(), Json::from(t.rate)),
        ("burst".to_string(), Json::from(u64::from(t.burst))),
        ("requests".to_string(), Json::from(t.requests)),
        ("sectors".to_string(), Json::from(t.sectors)),
        ("iops".to_string(), Json::from(t.iops)),
    ];
    let response = t.response.summary();
    if response.count > 0 {
        members.push(("response".to_string(), latency_json(&response)));
    }
    if let Some(target) = t.slo {
        let mut slo = vec![
            ("target_ns".to_string(), Json::from(target.as_nanos())),
            ("samples".to_string(), Json::from(t.slo_samples)),
            ("good".to_string(), Json::from(t.slo_good)),
        ];
        if let Some(attainment) = t.slo_attainment() {
            slo.push(("attainment".to_string(), Json::from(attainment)));
        }
        members.push(("slo".to_string(), Json::Obj(slo)));
    }
    Json::Obj(members)
}

/// Renders a slice of [`TenantReport`]s as the `tenants` array member of
/// a run entry.
#[must_use]
pub fn tenants_json(tenants: &[TenantReport]) -> Json {
    Json::Arr(tenants.iter().map(tenant_json).collect())
}

/// Builder for a `BENCH_<name>.json` document: free-form metadata plus a
/// list of run entries.
///
/// # Examples
///
/// ```
/// use esp_core::{run_trace, BenchReport, FtlConfig, SubFtl};
/// use esp_workload::{generate, SyntheticConfig};
///
/// let mut ftl = SubFtl::new(&FtlConfig::tiny());
/// let trace = generate(&SyntheticConfig {
///     footprint_sectors: 64,
///     requests: 50,
///     ..SyntheticConfig::default()
/// });
/// let run = run_trace(&mut ftl, &trace);
///
/// let mut bench = BenchReport::new("doc_example");
/// bench.meta("seed", 42u64.into());
/// bench.push_run("tiny", &run);
/// let json = bench.to_json();
/// esp_core::validate_bench(&json).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    meta: Vec<(String, Json)>,
    runs: Vec<Json>,
}

impl BenchReport {
    /// Starts a report named `name` (the emitted file is
    /// `BENCH_<name>.json`).
    #[must_use]
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            meta: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Attaches one metadata member (geometry, seed, flags, …).
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Appends a run entry built from `report`.
    pub fn push_run(&mut self, label: &str, report: &RunReport) {
        self.runs.push(run_json(label, report));
    }

    /// Appends a run entry with extra members spliced onto the standard
    /// entry (e.g. `mapping_memory_bytes`, trace events).
    pub fn push_run_with(
        &mut self,
        label: &str,
        report: &RunReport,
        extra: impl IntoIterator<Item = (String, Json)>,
    ) {
        let mut entry = run_json(label, report);
        if let Json::Obj(members) = &mut entry {
            members.extend(extra);
        }
        self.runs.push(entry);
    }

    /// Appends a run entry built from a multi-tenant replay: the
    /// standard whole-device entry plus the schema-v3 `tenants` array.
    /// Extra members splice on exactly as in [`Self::push_run_with`].
    pub fn push_tenant_run(
        &mut self,
        label: &str,
        report: &TenantRunReport,
        extra: impl IntoIterator<Item = (String, Json)>,
    ) {
        self.push_run_with(
            label,
            &report.run,
            [("tenants".to_string(), tenants_json(&report.tenants))]
                .into_iter()
                .chain(extra),
        );
    }

    /// Appends trace events to the most recent run entry (the newest
    /// `events.len()` events the recorder retained, plus the eviction
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if no run has been pushed yet.
    pub fn attach_events(&mut self, events: &[TraceEvent], dropped: u64) {
        let entry = self.runs.last_mut().expect("attach_events needs a run");
        if let Json::Obj(members) = entry {
            members.push(("events_dropped".to_string(), Json::from(dropped)));
            members.push((
                "events".to_string(),
                Json::Arr(events.iter().map(TraceEvent::to_json).collect()),
            ));
        }
    }

    /// Renders the complete document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(BENCH_SCHEMA_NAME)),
            ("schema_version", Json::from(BENCH_SCHEMA_VERSION)),
            ("name", Json::from(self.name.as_str())),
            ("meta", Json::Obj(self.meta.clone())),
            ("runs", Json::Arr(self.runs.clone())),
        ])
    }

    /// Writes the document to `path` (pretty-printed, trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().to_pretty().as_bytes())
    }

    /// Writes `BENCH_<name>.json` into `$BENCH_OUT_DIR` (or the current
    /// directory when unset) and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(PathBuf::new, PathBuf::from);
        let path = dir.join(format!("BENCH_{}.json", self.name));
        self.write_to(&path)?;
        Ok(path)
    }
}

/// Checks a parsed document against the BENCH schema: the `esp-bench`
/// discriminator, a supported `schema_version`, a `name`, a `meta`
/// object, and every [`REQUIRED_RUN_FIELDS`] path in every run entry.
///
/// # Errors
///
/// Returns a message naming the first violated requirement.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` member")?;
    if schema != BENCH_SCHEMA_NAME {
        return Err(format!(
            "schema is `{schema}`, expected `{BENCH_SCHEMA_NAME}`"
        ));
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing integer `schema_version`")?;
    if version > BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is newer than this build supports \
             (1..={BENCH_SCHEMA_VERSION}); the document was produced by a \
             newer esp-storage — upgrade this tool (rebuild from the commit \
             that wrote the document) or regenerate the document with this \
             version"
        ));
    }
    if version == 0 {
        return Err(format!(
            "schema_version 0 is invalid (this library understands 1..={BENCH_SCHEMA_VERSION})"
        ));
    }
    doc.get("name")
        .and_then(Json::as_str)
        .ok_or("missing string `name`")?;
    doc.get("meta")
        .and_then(Json::as_obj)
        .ok_or("missing object `meta`")?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing array `runs`")?;
    for (i, run) in runs.iter().enumerate() {
        // Reject duplicate member keys: `push_run_with` splices extras
        // with no collision check, so two producers writing the same
        // namespace (e.g. `array.*` and a future cache counter both
        // claiming `mapping_memory_bytes`) would otherwise shadow each
        // other silently — `benchcmp` and jq both read whichever copy
        // their parser keeps, hiding the regression the gate exists for.
        if let Some(members) = run.as_obj() {
            let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("runs[{i}] has duplicate member `{}`", w[0]));
            }
        }
        for field in REQUIRED_RUN_FIELDS {
            let v = run
                .path(field)
                .ok_or_else(|| format!("runs[{i}] missing `{field}`"))?;
            let ok = match *field {
                "label" | "ftl" => v.as_str().is_some(),
                _ => v.as_f64().is_some(),
            };
            if !ok {
                return Err(format!("runs[{i}].{field} has the wrong type"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_trace, Ftl};
    use crate::{FtlConfig, SubFtl};
    use esp_workload::{generate, SyntheticConfig};

    fn sample_report() -> BenchReport {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let trace = generate(&SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 300,
            r_small: 1.0,
            r_synch: 1.0,
            read_fraction: 0.3,
            ..SyntheticConfig::default()
        });
        let run = run_trace(&mut ftl, &trace);
        let mut b = BenchReport::new("unit_test");
        b.meta("seed", 42u64.into());
        b.meta("geometry", "tiny".into());
        b.push_run("mixed", &run);
        b.push_run_with(
            "mixed+mem",
            &run,
            [(
                "mapping_memory_bytes".to_string(),
                Json::from(crate::Ftl::mapping_memory_bytes(&ftl)),
            )],
        );
        b
    }

    #[test]
    fn emitted_document_validates() {
        let j = sample_report().to_json();
        validate_bench(&j).unwrap();
    }

    #[test]
    fn document_roundtrips_through_text() {
        let j = sample_report().to_json();
        let text = j.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j, "parse(emit(doc)) must be identity");
        validate_bench(&back).unwrap();
    }

    #[test]
    fn latency_percentiles_are_present_and_ordered() {
        let j = sample_report().to_json();
        let run = &j.get("runs").unwrap().as_arr().unwrap()[0];
        for class in ["all", "read", "write"] {
            let p50 = run
                .path(&format!("latency.{class}.p50_ns"))
                .and_then(Json::as_u64)
                .unwrap();
            let p999 = run
                .path(&format!("latency.{class}.p999_ns"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(p50 <= p999, "{class}: p50 {p50} > p999 {p999}");
            assert!(p50 > 0, "{class}: sync workload must record latencies");
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let mut j = sample_report().to_json();
        validate_bench(&j).unwrap();
        // Wrong discriminator.
        if let Json::Obj(m) = &mut j {
            m[0].1 = Json::from("not-esp-bench");
        }
        assert!(validate_bench(&j).is_err());
        // Future schema version: rejected with an upgrade hint naming the
        // offending version and the supported range.
        let mut j = sample_report().to_json();
        if let Json::Obj(m) = &mut j {
            m[1].1 = Json::from(BENCH_SCHEMA_VERSION + 1);
        }
        let err = validate_bench(&j).unwrap_err();
        assert!(
            err.contains("newer") && err.contains("upgrade"),
            "future-version error should tell the user to upgrade: {err}"
        );
        assert!(
            err.contains(&format!("schema_version {}", BENCH_SCHEMA_VERSION + 1))
                && err.contains(&format!("1..={BENCH_SCHEMA_VERSION}")),
            "future-version error should name versions: {err}"
        );
        // Version 0 is below the supported range.
        let mut j = sample_report().to_json();
        if let Json::Obj(m) = &mut j {
            m[1].1 = Json::from(0u64);
        }
        assert!(validate_bench(&j).is_err());
        // A run stripped of a required field.
        let mut j = sample_report().to_json();
        if let Some(Json::Arr(runs)) = match &mut j {
            Json::Obj(m) => m.iter_mut().find(|(k, _)| k == "runs").map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Obj(run) = &mut runs[0] {
                run.retain(|(k, _)| k != "iops");
            }
        }
        let err = validate_bench(&j).unwrap_err();
        assert!(err.contains("iops"), "error should name the field: {err}");
    }

    #[test]
    fn validation_rejects_colliding_extras() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let trace = generate(&SyntheticConfig {
            footprint_sectors: 64,
            requests: 50,
            r_small: 1.0,
            r_synch: 1.0,
            ..SyntheticConfig::default()
        });
        let run = run_trace(&mut ftl, &trace);
        let mut b = BenchReport::new("dup_extras");
        // Two extras producers claim the same member name — as array and
        // map-cache reporting both could for `mapping_memory_bytes`.
        b.push_run_with(
            "collision",
            &run,
            [
                ("mapping_memory_bytes".to_string(), Json::from(1u64)),
                ("mapping_memory_bytes".to_string(), Json::from(2u64)),
            ],
        );
        let err = validate_bench(&b.to_json()).unwrap_err();
        assert!(
            err.contains("duplicate") && err.contains("mapping_memory_bytes"),
            "error should name the duplicated member: {err}"
        );
        // An extra colliding with a standard member is caught too.
        let mut b = BenchReport::new("dup_standard");
        b.push_run_with("collision", &run, [("iops".to_string(), Json::from(0u64))]);
        let err = validate_bench(&b.to_json()).unwrap_err();
        assert!(err.contains("duplicate") && err.contains("iops"), "{err}");
        // Distinct namespaces coexist fine.
        let mut b = BenchReport::new("ok_extras");
        b.push_run_with(
            "no_collision",
            &run,
            [
                ("array.mapping_memory_bytes".to_string(), Json::from(1u64)),
                ("map_cache.resident_bytes".to_string(), Json::from(2u64)),
            ],
        );
        validate_bench(&b.to_json()).unwrap();
    }

    #[test]
    fn attach_events_embeds_the_stream() {
        let mut b = BenchReport::new("ev");
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let trace = generate(&SyntheticConfig {
            footprint_sectors: 64,
            requests: 20,
            ..SyntheticConfig::default()
        });
        let run = run_trace(&mut ftl, &trace);
        b.push_run("r", &run);
        let events = vec![TraceEvent::new(5, "host.write").field("lsn", 1)];
        b.attach_events(&events, 7);
        let j = b.to_json();
        validate_bench(&j).unwrap();
        let run = &j.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("events_dropped").and_then(Json::as_u64), Some(7));
        let ev = &run.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("kind").and_then(Json::as_str), Some("host.write"));
    }

    #[test]
    fn tenant_run_entry_validates_and_carries_qos_rows() {
        use crate::tenant::{run_tenants_qd, TenantConfig, TenantSet};
        use esp_sim::SimDuration;

        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut set = TenantSet::new();
        // Open tenant with an SLO: gets a `response` block and an `slo`
        // object. Closed unlimited tenant: neither.
        set.add(
            TenantConfig::new("open").slo(SimDuration::from_millis(50)),
            generate(&SyntheticConfig {
                footprint_sectors: 64,
                requests: 60,
                r_small: 1.0,
                r_synch: 1.0,
                inter_arrival: SimDuration::from_micros(200),
                ..SyntheticConfig::default()
            }),
        );
        set.add(
            TenantConfig::new("closed").weight(2),
            generate(&SyntheticConfig {
                footprint_sectors: 64,
                requests: 60,
                r_small: 1.0,
                r_synch: 1.0,
                seed: 7,
                ..SyntheticConfig::default()
            }),
        );
        let report = run_tenants_qd(&mut ftl, &set, 4);

        let mut b = BenchReport::new("tenant_unit");
        b.push_tenant_run(
            "two_tenants",
            &report,
            [("queue_depth".to_string(), Json::from(4u64))],
        );
        let j = b.to_json();
        validate_bench(&j).unwrap();

        let run = &j.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("queue_depth").and_then(Json::as_u64), Some(4));
        let tenants = run.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 2);
        let open = &tenants[0];
        assert_eq!(open.get("name").and_then(Json::as_str), Some("open"));
        assert_eq!(open.get("requests").and_then(Json::as_u64), Some(60));
        assert!(open.path("response.p99_ns").is_some());
        assert_eq!(
            open.path("slo.target_ns").and_then(Json::as_u64),
            Some(50_000_000)
        );
        let samples = open.path("slo.samples").and_then(Json::as_u64).unwrap();
        let good = open.path("slo.good").and_then(Json::as_u64).unwrap();
        assert!(samples > 0 && good <= samples);
        let attainment = open.path("slo.attainment").and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&attainment));
        let closed = &tenants[1];
        assert_eq!(closed.get("weight").and_then(Json::as_u64), Some(2));
        assert!(closed.get("response").is_none(), "closed tenant: no block");
        assert!(closed.get("slo").is_none(), "no SLO configured: no block");
    }
}
