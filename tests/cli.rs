//! End-to-end tests of the `espsim` command-line interface: real process
//! invocations of the built binary.

use std::process::Command;

/// The MSR Cambridge sample committed under `data/`.
const MSR_SAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/msr_sample.csv");

fn espsim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_espsim"))
        .args(args)
        .output()
        .expect("espsim runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = espsim(&["help"]);
    assert!(ok);
    for word in ["run", "compare", "gen", "replay", "stats", "--geometry"] {
        assert!(stdout.contains(word), "help missing `{word}`");
    }
}

#[test]
fn run_reports_metrics() {
    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--ftl",
        "sub",
        "--rsmall",
        "1.0",
        "--requests",
        "500",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
    ]);
    assert!(ok, "stderr: {stderr}");
    for field in ["IOPS", "request WAF", "read faults", "subFTL"] {
        assert!(stdout.contains(field), "missing `{field}` in:\n{stdout}");
    }
    assert!(stdout.contains("read faults     0"));
}

#[test]
fn run_with_fault_injection_reports_fault_counters() {
    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--ftl",
        "sub",
        "--rsmall",
        "1.0",
        "--requests",
        "1500",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--pfail",
        "0.005",
        "--bad-blocks",
        "2",
        "--fault-seed",
        "7",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("read faults     0"), "in:\n{stdout}");
    assert!(stdout.contains("write retries"), "in:\n{stdout}");
    assert!(stdout.contains("blocks retired  2"), "in:\n{stdout}");
}

#[test]
fn fault_free_run_prints_no_fault_counters() {
    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--rsmall",
        "1.0",
        "--requests",
        "300",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(!stdout.contains("write retries"), "in:\n{stdout}");
    assert!(!stdout.contains("blocks retired"), "in:\n{stdout}");
}

#[test]
fn relocation_counts_unrecoverable_reads_instead_of_panicking() {
    // At this disturb rate GC, reclaim and the patrol meet valid units the
    // retry ladder cannot recover. Each FTL must count them as read faults
    // and finish the run.
    for ftl in ["cgm", "fgm", "sub", "sectorlog"] {
        let (ok, stdout, stderr) = espsim(&[
            "run",
            "--ftl",
            ftl,
            "--geometry",
            "2x2x16x32",
            "--op",
            "0.4",
            "--requests",
            "2000",
            "--rsmall",
            "0.5",
            "--read-fraction",
            "0.9",
            "--read-disturb",
            "3e-2",
            "--retry-ladder",
            "on",
            "--reclaim-threshold",
            "2",
        ]);
        assert!(ok, "{ftl}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{ftl}: stderr: {stderr}");
        let faults: u64 = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("read faults"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{ftl}: no read-fault count in:\n{stdout}"));
        assert!(faults > 0, "{ftl}: in:\n{stdout}");
    }
}

#[test]
fn compare_covers_all_four_ftls() {
    let (ok, stdout, stderr) = espsim(&[
        "compare",
        "--requests",
        "400",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
    ]);
    assert!(ok, "stderr: {stderr}");
    for name in ["cgmFTL", "fgmFTL", "sectorLogFTL", "subFTL"] {
        assert!(stdout.contains(name), "missing `{name}`");
    }
}

#[test]
fn gen_stats_replay_round_trip() {
    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.trace");
    let path_s = path.to_str().unwrap();

    let (ok, stdout, stderr) = espsim(&[
        "gen",
        "--out",
        path_s,
        "--requests",
        "300",
        "--rsmall",
        "0.8",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote 300 requests"));

    let (ok, stdout, _) = espsim(&["stats", "--trace", path_s]);
    assert!(ok);
    assert!(stdout.contains("requests            300"));
    assert!(stdout.contains("r_small"));

    let (ok, stdout, stderr) = espsim(&["replay", "--ftl", "fgm", "--trace", path_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("fgmFTL"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn msr_import_works() {
    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.csv");
    std::fs::write(
        &path,
        "1000,h,0,Write,4096,4096,1\n1100,h,0,Read,0,16384,1\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = espsim(&["stats", "--msr", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("requests            2"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_inputs_fail_with_messages() {
    let (ok, _, stderr) = espsim(&["run", "--ftl", "nvme"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --ftl"));

    let (ok, _, stderr) = espsim(&["run", "--geometry", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("geometry"));

    let (ok, _, stderr) = espsim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = espsim(&["replay", "--ftl", "sub"]);
    assert!(!ok);
    assert!(stderr.contains("--trace"));

    let dir = std::env::temp_dir().join("espsim_cli_capacity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.trace");
    let trace = path.to_str().unwrap();
    let (ok, _, stderr) = espsim(&[
        "gen",
        "--footprint",
        "100000000",
        "--requests",
        "300",
        "--out",
        trace,
    ]);
    assert!(ok, "stderr: {stderr}");
    let (ok, _, stderr) = espsim(&[
        "replay",
        "--ftl",
        "cgm",
        "--trace",
        trace,
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("logical capacity (2456 sectors)"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&path).ok();

    // Out-of-range host input comes back as an `espsim:` error; it must
    // never reach one of the library's asserts.
    let rejects = |args: &[&str], message: &str| {
        let (ok, _, stderr) = espsim(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.starts_with("espsim: ") && stderr.contains(message),
            "{args:?}: stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    };
    for cmd in ["run", "compare"] {
        for qd in ["0", "65537", "1152921504606846976"] {
            rejects(
                &[cmd, "--qd", qd, "--requests", "10"],
                "--qd must be in [1, 65536]",
            );
        }
    }
    for fill in ["1.5", "-0.5", "nan"] {
        rejects(
            &["run", "--fill", fill, "--requests", "10"],
            "--fill must be in [0, 1]",
        );
    }
    for tenants in [&[][..], &["--tenants", "2"][..]] {
        let run =
            |extra: &[&'static str]| [&["run", "--requests", "10"][..], tenants, extra].concat();
        for scale in ["0", "-1", "nan"] {
            rejects(
                &run(&["--time-scale", scale]),
                "--time-scale must be finite and positive",
            );
        }
        rejects(&run(&["--rsmall", "2"]), "r_small must be in [0, 1]");
        rejects(
            &run(&["--read-fraction", "5"]),
            "read_fraction must be in [0, 1]",
        );
        rejects(
            &run(&["--benchmark", "sysbench", "--footprint", "1"]),
            "footprint_sectors must be at least 64",
        );
    }
    rejects(
        &[
            "run",
            "--array",
            "3",
            "--kill-device",
            "0",
            "--kill-at-op",
            "0",
            "--requests",
            "10",
        ],
        "die_at_op must be at least 1",
    );
    for disturb in ["nan", "inf", "-0.5"] {
        rejects(
            &["run", "--read-disturb", disturb, "--requests", "10"],
            "--read-disturb must be finite and non-negative",
        );
    }
    for tenants in [&[][..], &["--tenants", "2", "--msr-disk", "0,1"][..]] {
        for r_synch in ["2", "nan"] {
            let args = [
                &["replay", "--msr", MSR_SAMPLE, "--msr-rsynch", r_synch][..],
                tenants,
            ]
            .concat();
            rejects(&args, "--msr-rsynch must be in [0, 1]");
        }
    }
}

#[test]
fn malformed_trace_fails_with_line_number_not_a_panic() {
    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();

    // Line 3 of the trace file is garbage: the loader must surface a typed
    // parse error naming the line, and espsim must exit nonzero with it —
    // not panic, not silently skip the line.
    let path = dir.join("bad.trace");
    std::fs::write(&path, "footprint 100\n0 W 0 1 S\nthis is not a request\n").unwrap();
    let (ok, _, stderr) = espsim(&["replay", "--ftl", "sub", "--trace", path.to_str().unwrap()]);
    assert!(!ok, "malformed trace must fail the process");
    assert!(
        stderr.contains("line 3"),
        "error should name the offending line: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "parse failure must not be a panic: {stderr}"
    );
    std::fs::remove_file(&path).ok();

    // A second `footprint` header would start a new trace and drop the
    // requests read so far: it is an error on its line too.
    let path = dir.join("two_headers.trace");
    std::fs::write(&path, "footprint 100\n0 W 0 1 S\nfootprint 50\n").unwrap();
    let (ok, _, stderr) = espsim(&["replay", "--ftl", "sub", "--trace", path.to_str().unwrap()]);
    assert!(!ok, "a repeated footprint header must fail the process");
    assert!(
        stderr.starts_with("espsim:") && stderr.contains("line 3"),
        "error should name the offending line: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "parse failure must not be a panic: {stderr}"
    );
    std::fs::remove_file(&path).ok();

    // Same contract for the MSR CSV importer.
    let path = dir.join("bad.csv");
    std::fs::write(
        &path,
        "1000,h,0,Write,4096,4096,1\n2000,h,0,Write,junk,1,1\n",
    )
    .unwrap();
    let (ok, _, stderr) = espsim(&["stats", "--msr", path.to_str().unwrap()]);
    assert!(!ok, "malformed MSR record must fail the process");
    assert!(
        stderr.contains("line 2") && stderr.contains("offset"),
        "error should name line and field: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn array_run_survives_device_loss_and_raid0_does_not() {
    let base = [
        "run",
        "--ftl",
        "sub",
        "--array",
        "3",
        "--requests",
        "6000",
        "--read-fraction",
        "0.4",
        "--rsmall",
        "0.5",
        "--qd",
        "4",
        "--geometry",
        "2x2x16x32",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--kill-device",
        "1",
    ];

    // Parity + hot spare: the kill degrades the array, rebuild starts, and
    // no host data is lost.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--kill-at-op", "5000", "--rebuild-interval-us", "50"]);
    let (ok, stdout, stderr) = espsim(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("=== array ==="),
        "missing array block:\n{stdout}"
    );
    assert!(stdout.contains("data loss       0"), "lost data:\n{stdout}");
    assert!(
        stdout.contains("state           Rebuilding") || stdout.contains("state           Healthy"),
        "array should be rebuilding or recovered:\n{stdout}"
    );
    assert!(
        stdout.contains("device failures 1"),
        "kill never tripped:\n{stdout}"
    );

    // RAID-0 (no parity, no spare): the same kill is unrecoverable.
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--parity",
        "false",
        "--spare",
        "false",
        "--kill-at-op",
        "1500",
    ]);
    let (ok, stdout, stderr) = espsim(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("state           Failed"),
        "stdout:\n{stdout}"
    );
    assert!(
        !stdout.contains("data loss       0"),
        "RAID-0 must lose data:\n{stdout}"
    );
}

#[test]
fn array_flags_without_array_are_rejected() {
    let (ok, _, stderr) = espsim(&["run", "--ftl", "sub", "--kill-device", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--array"), "stderr: {stderr}");
}

#[test]
fn run_json_emits_valid_bench_report_with_events() {
    use esp_storage::ftl::validate_bench;
    use esp_storage::sim::Json;

    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    let path_s = path.to_str().unwrap();

    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--ftl",
        "sub",
        "--rsmall",
        "1.0",
        "--requests",
        "800",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--json",
        path_s,
        "--events",
        "512",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains(&format!("wrote {path_s}")));

    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    validate_bench(&doc).expect("schema-valid BENCH report");
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        panic!("runs must be an array");
    };
    let run = &runs[0];
    assert_eq!(run.path("label").and_then(Json::as_str), Some("subFTL"));
    assert!(
        run.path("latency.write.p99_ns")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        run.path("mapping_memory_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let Some(Json::Arr(events)) = run.get("events") else {
        panic!("--events must embed trace events");
    };
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .any(|e| e.get("kind").and_then(Json::as_str) == Some("nand.program_subpage")));
    std::fs::remove_file(&path).ok();
}

#[test]
fn text_latency_line_matches_the_json_percentiles() {
    use esp_storage::sim::{Json, SimDuration};

    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("latency_line.json");
    let path_s = path.to_str().unwrap();

    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--ftl",
        "sub",
        "--rsmall",
        "1.0",
        "--requests",
        "3000",
        "--json",
        path_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    let at = |field: &str| {
        let ns = run
            .path(&format!("latency.all.{field}"))
            .and_then(Json::as_u64)
            .unwrap();
        SimDuration::from_nanos(ns)
    };
    let line = format!("  latency p50/p99 {} / {}", at("p50_ns"), at("p99_ns"));
    assert!(
        stdout.lines().any(|l| l == line),
        "text must print the JSON percentiles, `{line}`, in:\n{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn compare_json_has_one_run_per_ftl() {
    use esp_storage::ftl::validate_bench;
    use esp_storage::sim::Json;

    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("compare.json");

    let (ok, _, stderr) = espsim(&[
        "compare",
        "--requests",
        "600",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    validate_bench(&doc).expect("schema-valid BENCH report");
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        panic!("runs must be an array");
    };
    let labels: Vec<_> = runs
        .iter()
        .map(|r| r.get("label").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(labels, ["cgmFTL", "fgmFTL", "sectorLogFTL", "subFTL"]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tenant_run_prints_table_and_emits_qos_rows_in_json() {
    use esp_storage::ftl::validate_bench;
    use esp_storage::sim::Json;

    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenants.json");
    let path_s = path.to_str().unwrap();

    let (ok, stdout, stderr) = espsim(&[
        "run",
        "--tenants",
        "2",
        "--requests",
        "400",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--tenant-weight",
        "3,1",
        "--tenant-rate",
        "0,2000",
        "--tenant-slo",
        "50,0",
        "--arrival-model",
        "poisson:4000,closed",
        "--json",
        path_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("=== tenants ==="), "stdout:\n{stdout}");
    assert!(stdout.contains("t0") && stdout.contains("t1"));

    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    validate_bench(&doc).expect("schema-valid BENCH report");
    let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    let tenants = run.get("tenants").unwrap().as_arr().unwrap();
    assert_eq!(tenants.len(), 2);
    assert_eq!(tenants[0].get("name").and_then(Json::as_str), Some("t0"));
    assert_eq!(tenants[0].get("weight").and_then(Json::as_u64), Some(3));
    // t0 is the open tenant with an SLO: response percentiles and
    // attainment must be present; closed unlimited t1 has neither.
    assert!(tenants[0].path("response.p99_ns").is_some());
    assert!(tenants[0].path("slo.attainment").is_some());
    assert_eq!(tenants[1].get("rate").and_then(Json::as_f64), Some(2000.0));
    assert!(tenants[1].get("slo").is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn single_tenant_run_is_bit_identical_to_a_plain_run() {
    use esp_storage::sim::Json;

    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("plain.json");
    let one = dir.join("one_tenant.json");
    let base = [
        "run",
        "--requests",
        "400",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
        "--rsmall",
        "0.8",
        "--read-fraction",
        "0.3",
    ];
    let mut args = base.to_vec();
    args.extend(["--json", plain.to_str().unwrap()]);
    let (ok, _, stderr) = espsim(&args);
    assert!(ok, "stderr: {stderr}");
    let mut args = base.to_vec();
    args.extend(["--tenants", "1", "--json", one.to_str().unwrap()]);
    let (ok, _, stderr) = espsim(&args);
    assert!(ok, "stderr: {stderr}");

    let p = Json::parse(&std::fs::read_to_string(&plain).unwrap()).unwrap();
    let t = Json::parse(&std::fs::read_to_string(&one).unwrap()).unwrap();
    let p_run = p.get("runs").unwrap().as_arr().unwrap()[0].clone();
    let mut t_run = t.get("runs").unwrap().as_arr().unwrap()[0].clone();
    if let Json::Obj(members) = &mut t_run {
        members.retain(|(k, _)| k != "tenants");
    }
    assert_eq!(
        p_run, t_run,
        "one tenant with default QoS must replay bit-identically to a plain run"
    );
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&one).ok();
}

#[test]
fn msr_multi_disk_replay_runs_each_disk_as_a_tenant() {
    let dir = std::env::temp_dir().join("espsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("two_disks.csv");
    let mut csv = String::new();
    for i in 0..40u64 {
        csv.push_str(&format!(
            "{},h,0,Write,{},4096,1\n",
            1000 + i * 500_000,
            i * 8192
        ));
        csv.push_str(&format!(
            "{},h,1,Write,{},8192,1\n",
            1200 + i * 500_000,
            i * 4096
        ));
    }
    std::fs::write(&path, &csv).unwrap();

    let (ok, stdout, stderr) = espsim(&[
        "replay",
        "--msr",
        path.to_str().unwrap(),
        "--msr-disk",
        "0,1",
        "--tenant-weight",
        "2,1",
        "--geometry",
        "2x2x16x16",
        "--op",
        "0.4",
        "--fill",
        "0.3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("=== tenants ==="), "stdout:\n{stdout}");
    assert!(
        stdout.contains("disk0") && stdout.contains("disk1"),
        "tenant rows must be named after the MSR disks:\n{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn tenant_flags_are_validated() {
    // QoS flags without tenant mode.
    let (ok, _, stderr) = espsim(&["run", "--tenant-weight", "3", "--requests", "10"]);
    assert!(!ok);
    assert!(stderr.contains("--tenants"), "stderr: {stderr}");

    // Tenant mode does not stack with the array layer.
    let (ok, _, stderr) = espsim(&["run", "--tenants", "2", "--array", "3", "--requests", "10"]);
    assert!(!ok);
    assert!(stderr.contains("--array"), "stderr: {stderr}");

    // Per-tenant list length must match the tenant count.
    let (ok, _, stderr) = espsim(&[
        "run",
        "--tenants",
        "3",
        "--tenant-weight",
        "1,2",
        "--requests",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("3 tenants"), "stderr: {stderr}");

    // --arrival-model and --arrival-rate are mutually exclusive.
    let (ok, _, stderr) = espsim(&[
        "run",
        "--arrival-model",
        "poisson:1000",
        "--arrival-rate",
        "1000",
        "--requests",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");

    // A malformed arrival model names the accepted forms.
    let (ok, _, stderr) = espsim(&[
        "run",
        "--tenants",
        "1",
        "--arrival-model",
        "sawtooth:9",
        "--requests",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("poisson"), "stderr: {stderr}");
}
