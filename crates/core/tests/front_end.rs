//! The host front end all four FTLs share — write-back buffering, flush
//! and read admission: the same gates and completion times on each.

use std::panic::{catch_unwind, AssertUnwindSafe};

use esp_core::{CgmFtl, FgmFtl, Ftl, FtlConfig, SectorLogFtl, SubFtl};
use esp_sim::SimTime;

fn ftls() -> Vec<Box<dyn Ftl>> {
    let cfg = FtlConfig::tiny();
    vec![
        Box::new(CgmFtl::new(&cfg)),
        Box::new(FgmFtl::new(&cfg)),
        Box::new(SubFtl::new(&cfg)),
        Box::new(SectorLogFtl::new(&cfg)),
    ]
}

#[test]
fn write_past_capacity_panics() {
    for mut ftl in ftls() {
        let (name, end) = (ftl.name(), ftl.logical_sectors());
        let payload = catch_unwind(AssertUnwindSafe(|| {
            ftl.write(end - 1, 2, true, SimTime::ZERO)
        }))
        .expect_err(name);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("write beyond logical capacity"),
            "{name}: {msg}"
        );
    }
}

#[test]
fn failed_device_requests_complete_at_issue_and_count_nothing() {
    for mut ftl in ftls() {
        let name = ftl.name();
        // Data on flash and in the buffer, so each request has work to skip.
        let t = ftl.write(0, 4, true, SimTime::ZERO);
        ftl.write(8, 1, false, t);
        ftl.fail_device();
        let before = format!("{:?}", ftl.stats());
        let issue = SimTime::from_secs(1);
        assert_eq!(ftl.write(4, 1, true, issue), issue, "{name}: write");
        assert_eq!(ftl.read(0, 4, issue), issue, "{name}: read");
        assert_eq!(ftl.flush(issue), issue, "{name}: flush");
        assert_eq!(format!("{:?}", ftl.stats()), before, "{name}: counters");
    }
}

#[test]
fn sync_writes_wait_for_flash_and_async_writes_do_not() {
    for mut ftl in ftls() {
        let name = ftl.name();
        let issue = SimTime::from_secs(1);
        assert!(ftl.write(0, 1, true, issue) > issue, "{name}: sync");
        // Async writes complete at issue, including the one that fills the
        // buffer and drains it to flash.
        let mut lsn = 4;
        while ftl.ssd().device().stats().full_programs < 2 {
            assert_eq!(ftl.write(lsn, 4, false, issue), issue, "{name}: async");
            lsn += 4;
        }
    }
}
