//! Build your own FTL: the [`Ftl`] trait is the extension point — implement
//! it over the timed SSD and the trace runner, statistics and workload
//! machinery all work with your design.
//!
//! This example implements `appendFTL`, a deliberately naive log-structured
//! page-mapped FTL (~100 lines): every write appends whole pages, GC is
//! greedy, there is no buffer and no RMW (partial pages are padded). It is
//! then raced against subFTL on an fsync workload.
//!
//! ```sh
//! cargo run --release --example custom_ftl
//! ```

use esp_storage::ftl::{run_trace_qd, Ftl, FtlConfig, FtlStats, FullRegionEngine, SubFtl};
use esp_storage::nand::Oob;
use esp_storage::sim::SimTime;
use esp_storage::ssd::Ssd;
use esp_storage::workload::{generate, SyntheticConfig, SECTORS_PER_PAGE};

/// A minimal append-only page-mapped FTL built on the public pieces:
/// [`FullRegionEngine`] provides allocation + page map + GC; this type adds
/// only the host-facing policy.
struct AppendFtl {
    ssd: Ssd,
    engine: FullRegionEngine,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
}

impl AppendFtl {
    fn new(config: &FtlConfig) -> Self {
        let ssd = Ssd::new(config.geometry.clone());
        let logical_sectors = config.logical_sectors();
        let engine = FullRegionEngine::new(
            (0..config.geometry.block_count()).collect(),
            config.geometry.pages_per_block,
            config.geometry.blocks_per_chip,
            logical_sectors / u64::from(SECTORS_PER_PAGE),
        );
        AppendFtl {
            ssd,
            engine,
            stats: FtlStats::new(),
            seq: 0,
            logical_sectors,
        }
    }
}

impl Ftl for AppendFtl {
    fn name(&self) -> &'static str {
        "appendFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn write(&mut self, lsn: u64, sectors: u32, _sync: bool, issue: SimTime) -> SimTime {
        self.stats.host_write_requests += 1;
        self.stats.host_write_sectors += u64::from(sectors);
        let small = sectors < SECTORS_PER_PAGE;
        if small {
            self.stats.small_write_requests += 1;
            self.stats.small_waf_host_sectors += u64::from(sectors);
        }
        // Naive: one padded full-page program per touched logical page,
        // losing whatever else the page held (fine for a demo FTL whose
        // point is the wasted space, not data preservation semantics —
        // real code would RMW like cgmFTL).
        let page = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        for lpn in lsn / page..=(lsn + u64::from(sectors) - 1) / page {
            let mut oobs: Vec<Option<Oob>> = vec![None; SECTORS_PER_PAGE as usize];
            let s_lo = lsn.max(lpn * page);
            let s_hi = (lsn + u64::from(sectors)).min((lpn + 1) * page);
            for s in s_lo..s_hi {
                self.seq += 1;
                oobs[(s % page) as usize] = Some(Oob {
                    lsn: s,
                    seq: self.seq,
                });
            }
            match self
                .engine
                .try_program_page(lpn, &oobs, &mut self.ssd, &mut self.stats, issue)
            {
                Ok(t) => done = done.max(t),
                // Worn out: drop the write, as cgmFTL does; the page's old
                // copy, if any, stays mapped.
                Err(_) => continue,
            }
            if small {
                self.stats.small_waf_flash_sectors +=
                    f64::from(SECTORS_PER_PAGE) / (s_hi - s_lo) as f64;
            }
        }
        done
    }

    fn read(&mut self, lsn: u64, _sectors: u32, issue: SimTime) -> SimTime {
        self.stats.host_read_requests += 1;
        match self.engine.lookup(lsn / u64::from(SECTORS_PER_PAGE)) {
            Some(ptr) => {
                let addr = self.engine.page_addr(ptr, &self.ssd);
                let (_, done) = self.ssd.read_full(addr, issue);
                done
            }
            None => issue,
        }
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        issue // nothing buffered
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        let page = u64::from(SECTORS_PER_PAGE);
        for lpn in lsn.div_ceil(page)..(lsn + u64::from(sectors)) / page {
            self.engine.unmap(lpn);
        }
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.engine.mapping_bytes()
    }

    fn stored_seq(&self, _lsn: u64) -> Option<u64> {
        None // demo FTL: no diagnostics
    }

    fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn ssd(&self) -> &Ssd {
        &self.ssd
    }
}

fn main() {
    let mut cfg = FtlConfig::paper_default();
    cfg.geometry.blocks_per_chip = 8;
    let trace = generate(&SyntheticConfig {
        footprint_sectors: cfg.logical_sectors() / 2,
        requests: 10_000,
        r_small: 1.0,
        r_synch: 1.0,
        zipf_theta: 0.9,
        small_zone_sectors: Some(cfg.logical_sectors() / 64),
        seed: 1,
        ..SyntheticConfig::default()
    });

    println!("custom appendFTL vs subFTL on 10k fsync writes:\n");
    println!(
        "{:>10} {:>9} {:>8} {:>12}",
        "FTL", "IOPS", "erases", "request WAF"
    );
    let mut append = AppendFtl::new(&cfg);
    let mut sub = SubFtl::new(&cfg);
    for ftl in [&mut append as &mut dyn Ftl, &mut sub] {
        let r = run_trace_qd(ftl, &trace, 8);
        println!(
            "{:>10} {:>9.0} {:>8} {:>12.3}",
            r.ftl,
            r.iops,
            r.erases,
            r.stats.small_request_waf()
        );
    }
    println!(
        "\nImplementing `Ftl` is all it takes to race a new design against\n\
         the paper's FTLs on identical devices and workloads."
    );
}
