//! Replay test fixtures shared by the `runner.rs`, `tenant.rs` and
//! `block_pool.rs` unit tests: a fixed-latency stub FTL, one mixed
//! workload, and the four FTLs.

use esp_sim::{SimDuration, SimTime};
use esp_ssd::Ssd;
use esp_workload::{SyntheticConfig, Trace};

use crate::{Ftl, FtlConfig, FtlStats};

/// One host read or write the stub served.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Call {
    pub(crate) lsn: u64,
    pub(crate) sectors: u32,
    pub(crate) issue: SimTime,
}

/// An [`Ftl`] with a fixed service time: reads and sync writes take
/// `busy`, async writes complete at issue. It records every host call and
/// every idle window the runner grants, so tests can pin down dispatch
/// order and issue times without device-model noise.
pub(crate) struct StubFtl {
    ssd: Ssd,
    stats: FtlStats,
    busy: SimDuration,
    pub(crate) calls: Vec<Call>,
    pub(crate) idle_windows: Vec<(SimTime, SimTime)>,
}

impl StubFtl {
    pub(crate) fn new(busy: SimDuration) -> Self {
        StubFtl {
            ssd: Ssd::new(esp_nand::Geometry::tiny()),
            stats: FtlStats::new(),
            busy,
            calls: Vec::new(),
            idle_windows: Vec::new(),
        }
    }

    /// Issue time of the nth host call.
    pub(crate) fn issue(&self, n: usize) -> SimTime {
        self.calls[n].issue
    }
}

impl Ftl for StubFtl {
    fn name(&self) -> &'static str {
        "stub"
    }
    fn logical_sectors(&self) -> u64 {
        1 << 20
    }
    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.calls.push(Call {
            lsn,
            sectors,
            issue,
        });
        if sync {
            issue + self.busy
        } else {
            issue
        }
    }
    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        self.calls.push(Call {
            lsn,
            sectors,
            issue,
        });
        issue + self.busy
    }
    fn flush(&mut self, issue: SimTime) -> SimTime {
        issue
    }
    fn idle(&mut self, from: SimTime, until: SimTime) {
        self.idle_windows.push((from, until));
    }
    fn stored_seq(&self, _lsn: u64) -> Option<u64> {
        None
    }
    fn trim(&mut self, _lsn: u64, _sectors: u32) {}
    fn mapping_memory_bytes(&self) -> u64 {
        0
    }
    fn stats(&self) -> &FtlStats {
        &self.stats
    }
    fn ssd(&self) -> &Ssd {
        &self.ssd
    }
}

/// A mixed workload — sync and async writes, reads, rewrites of the same
/// sectors, spaced and bursty arrivals — of 600 requests over `footprint`
/// sectors.
pub(crate) fn mixed_trace(footprint: u64, seed: u64) -> Trace {
    esp_workload::generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests: 600,
        r_small: 0.8,
        r_synch: 0.6,
        read_fraction: 0.3,
        inter_arrival: SimDuration::from_micros(300),
        burst_period: 97,
        burst_idle: SimDuration::from_millis(40),
        seed,
        ..SyntheticConfig::default()
    })
}

/// Fresh instances of all four FTLs, for cross-implementation tests.
pub(crate) fn all_ftls(cfg: &FtlConfig) -> Vec<(&'static str, Box<dyn Ftl>)> {
    vec![
        ("cgm", Box::new(crate::CgmFtl::new(cfg)) as Box<dyn Ftl>),
        ("fgm", Box::new(crate::FgmFtl::new(cfg))),
        ("sub", Box::new(crate::SubFtl::new(cfg))),
        ("sector_log", Box::new(crate::SectorLogFtl::new(cfg))),
    ]
}
