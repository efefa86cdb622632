//! # esp-array — fault-tolerant multi-device array layer
//!
//! Stripes a host LBA space across N simulated SSD shards (each a full
//! [`Ftl`] + [`esp_ssd::Ssd`] + [`esp_nand::NandDevice`] stack) and
//! survives the loss of a whole device:
//!
//! * **RAID-0 striping** (`parity: false`): chunks rotate round-robin
//!   across all shards; a device loss fails the array.
//! * **Rotating parity** (`parity: true`, RAID-5 style): each row of N
//!   chunks holds N−1 data chunks plus one parity chunk, with the parity
//!   role rotating across shards row by row so parity-update traffic
//!   spreads evenly.
//! * **Degraded-mode reads**: after a device loss, reads that land on the
//!   dead shard are reconstructed by XOR over the surviving shards of the
//!   row — the reconstruction reads are issued against the *surviving*
//!   devices, so their latency cost lands where a real array pays it.
//! * **Hot-spare rebuild**: with `spare: true`, a device loss starts a
//!   throttled background rebuild that reconstructs the dead shard's
//!   chunks stripe by stripe onto the spare, interleaved with host
//!   traffic; when the last row lands the spare takes over the dead
//!   shard's role and the array returns to `Healthy`.
//!
//! The array health state machine is explicit and monotonic per failure:
//!
//! ```text
//! Healthy ──device loss (parity + spare)──▶ Rebuilding ──last row──▶ Healthy
//! Healthy ──device loss (parity, no spare)──▶ Degraded
//! Healthy ──device loss (no parity)──▶ Failed
//! Degraded / Rebuilding ──second device loss──▶ Failed
//! ```
//!
//! [`EspArray`] implements [`Ftl`] itself, so the replay engine
//! ([`esp_core::run_trace_qd`]), preconditioning and the report
//! pipeline drive an array exactly like a single device. Aggregate FTL
//! statistics are the field-wise sum over shards ([`FtlStats::plus`]).
//!
//! ## Correctness oracle
//!
//! The array keeps a content model: every host sector written is stamped
//! with a monotonically increasing value, mirrored both in an `expected`
//! oracle (what the host wrote last) and in per-shard `stored` images
//! that follow exactly the data and parity writes issued to the shards.
//! Degraded reads recompute the dead shard's content by XOR over the
//! survivors' `stored` images — any divergence from `expected` counts as
//! lost data in [`ArrayStats::data_loss_sectors`]. The single-device-loss
//! property test (`tests` below) proves the count stays zero across all
//! four FTLs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use esp_core::{Ftl, FtlStats};
use esp_sim::{SimDuration, SimTime};
use esp_ssd::Ssd;

/// Array-level configuration.
///
/// `shards` counts the *active* devices (data + rotating parity); a hot
/// spare, when enabled, is one additional device on top.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Number of active shards the host space is striped across (≥ 2).
    pub shards: usize,
    /// Rotating parity (RAID-5 style). Off = pure striping (RAID-0):
    /// faster, but any device loss fails the array.
    pub parity: bool,
    /// Keep one extra shard as a hot spare and rebuild onto it after a
    /// device loss. Requires `parity` (there is nothing to rebuild from
    /// without it).
    pub spare: bool,
    /// Stripe chunk size in 4 KB sectors. The default (4) is one flash
    /// page, so full-page host writes map to full-page shard writes.
    pub chunk_sectors: u64,
    /// Minimum gap between background rebuild stripes. Smaller = faster
    /// rebuild, more interference with host traffic; `ZERO` rebuilds as
    /// fast as the survivors can stream.
    pub rebuild_interval: SimDuration,
    /// Treat a shard FTL's end-of-life latch (space exhaustion / read-only
    /// mode) as a device failure and retire the shard. Off by default:
    /// EOL handling stays the per-device graceful degradation the FTLs
    /// already implement.
    pub fail_on_eol: bool,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            shards: 4,
            parity: true,
            spare: true,
            chunk_sectors: 4,
            rebuild_interval: SimDuration::from_micros(200),
            fail_on_eol: false,
        }
    }
}

impl ArrayConfig {
    /// Validates ranges and cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards < 2 {
            return Err(format!(
                "array needs at least 2 shards (got {})",
                self.shards
            ));
        }
        if self.parity && self.shards < 3 {
            return Err(format!(
                "parity arrays need at least 3 shards so a row has 2+ data chunks (got {})",
                self.shards
            ));
        }
        if self.spare && !self.parity {
            return Err("a hot spare requires parity (nothing to rebuild from without it)".into());
        }
        if self.chunk_sectors == 0 {
            return Err("chunk_sectors must be at least 1".into());
        }
        Ok(())
    }

    /// Total devices the array owns: active shards plus the spare.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.shards + usize::from(self.spare)
    }
}

/// Array health state machine (see crate docs for transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayHealth {
    /// All active shards alive; full striping performance.
    Healthy,
    /// One shard lost, no spare (or spare also lost): reads on the dead
    /// shard are reconstructed from parity; redundancy is exhausted.
    Degraded,
    /// One shard lost, hot spare attached: background rebuild in
    /// progress; rebuilt rows are already served from the spare.
    Rebuilding,
    /// Data loss: a shard died without parity, or a second shard died.
    /// Reads and writes on the array are refused (counted as lost).
    Failed,
}

impl fmt::Display for ArrayHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrayHealth::Healthy => "Healthy",
            ArrayHealth::Degraded => "Degraded",
            ArrayHealth::Rebuilding => "Rebuilding",
            ArrayHealth::Failed => "Failed",
        })
    }
}

/// Array-level counters, all monotonic over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Whole-device failures detected (fault-model death trips, explicit
    /// kills, or EOL retirements under `fail_on_eol`).
    pub device_failures: u64,
    /// Host read requests (or spans) served by parity reconstruction.
    pub degraded_reads: u64,
    /// Sectors reconstructed by XOR over survivors (degraded reads plus
    /// rebuild traffic).
    pub reconstructed_sectors: u64,
    /// Rebuild rows copied onto the hot spare so far.
    pub rebuild_rows_done: u64,
    /// Total rows a full rebuild must copy (0 until a rebuild starts).
    pub rebuild_rows_total: u64,
    /// Read sectors refused because the array had already failed.
    pub lost_read_sectors: u64,
    /// Write sectors dropped because the array had already failed.
    pub lost_write_sectors: u64,
    /// Sectors whose reconstructed or stored content diverged from the
    /// host's write oracle — genuine silent data loss.
    pub mismatch_sectors: u64,
}

impl ArrayStats {
    /// Total sectors of host data lost: refused reads and writes after
    /// array failure plus silent content mismatches.
    #[must_use]
    pub fn data_loss_sectors(&self) -> u64 {
        self.lost_read_sectors + self.lost_write_sectors + self.mismatch_sectors
    }
}

/// A striped, parity-protected array of [`Ftl`] shards that itself
/// implements [`Ftl`]. See the crate docs for the full model.
pub struct EspArray {
    cfg: ArrayConfig,
    shards: Vec<Box<dyn Ftl>>,
    /// Active role → device index into `shards`. Starts as the identity;
    /// a completed rebuild repoints the dead role at the spare.
    role_dev: Vec<usize>,
    /// Device index of the unused hot spare, if one is still attached.
    spare_dev: Option<usize>,
    /// Role whose device is dead (None while `Healthy`, kept on `Failed`
    /// for post-mortem).
    dead_role: Option<usize>,
    health: ArrayHealth,
    /// Rows `0..rebuilt_rows` have been copied onto the spare.
    rebuilt_rows: u64,
    /// Earliest time the next rebuild stripe may issue.
    rebuild_ready_at: SimTime,
    /// Rows per shard (shard capacity / chunk).
    rows: u64,
    /// Host sectors exported (`rows × data_per_row × chunk`).
    logical: u64,
    /// Per-device shard content image, following exactly the writes the
    /// model issued (index = device, then shard sector).
    stored: Vec<Vec<u64>>,
    /// Host write oracle: last value written per host sector (0 = never).
    expected: Vec<u64>,
    write_counter: u64,
    /// Field-wise sum of shard stats, refreshed after every host op.
    agg: FtlStats,
    array_stats: ArrayStats,
}

impl EspArray {
    /// Builds an array over `shards` (length must be
    /// [`ArrayConfig::devices`]; with a spare, the last shard is the
    /// spare). All shards must export the same logical capacity.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the shard count is wrong,
    /// or shard capacities differ — all construction bugs.
    #[must_use]
    pub fn new(cfg: ArrayConfig, shards: Vec<Box<dyn Ftl>>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid array config: {e}");
        }
        assert_eq!(
            shards.len(),
            cfg.devices(),
            "array config wants {} devices, got {} shards",
            cfg.devices(),
            shards.len()
        );
        let shard_sectors = shards[0].logical_sectors();
        for s in &shards {
            assert_eq!(
                s.logical_sectors(),
                shard_sectors,
                "all shards must export the same capacity"
            );
        }
        let rows = shard_sectors / cfg.chunk_sectors;
        assert!(rows > 0, "shards too small for even one stripe row");
        let data_per_row = cfg.shards as u64 - u64::from(cfg.parity);
        let logical = rows * data_per_row * cfg.chunk_sectors;
        let shard_span = usize::try_from(rows * cfg.chunk_sectors).expect("shard span fits usize");
        let stored = vec![vec![0u64; shard_span]; shards.len()];
        let expected = vec![0u64; usize::try_from(logical).expect("host span fits usize")];
        let role_dev = (0..cfg.shards).collect();
        let spare_dev = cfg.spare.then_some(cfg.shards);
        EspArray {
            cfg,
            shards,
            role_dev,
            spare_dev,
            dead_role: None,
            health: ArrayHealth::Healthy,
            rebuilt_rows: 0,
            rebuild_ready_at: SimTime::ZERO,
            rows,
            logical,
            stored,
            expected,
            write_counter: 0,
            agg: FtlStats::new(),
            array_stats: ArrayStats::default(),
        }
    }

    /// Current health state.
    #[must_use]
    pub fn health(&self) -> ArrayHealth {
        self.health
    }

    /// Array-level counters.
    #[must_use]
    pub fn array_stats(&self) -> &ArrayStats {
        &self.array_stats
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Borrow shard `dev` (device index, spare last).
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range.
    #[must_use]
    pub fn shard(&self, dev: usize) -> &dyn Ftl {
        self.shards[dev].as_ref()
    }

    /// Number of devices owned (active shards + spare).
    #[must_use]
    pub fn devices(&self) -> usize {
        self.shards.len()
    }

    /// Stripe rows per shard.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    // ---- geometry -------------------------------------------------------

    fn data_per_row(&self) -> u64 {
        self.cfg.shards as u64 - u64::from(self.cfg.parity)
    }

    /// Role holding the parity chunk of `row` (rotates RAID-5 style).
    fn parity_role(&self, row: u64) -> usize {
        debug_assert!(self.cfg.parity);
        usize::try_from(row % self.cfg.shards as u64).expect("role fits usize")
    }

    /// Maps a host sector to (role, shard sector, row).
    fn locate(&self, host: u64) -> (usize, u64, u64) {
        let chunk = self.cfg.chunk_sectors;
        let hostchunk = host / chunk;
        let off = host % chunk;
        let row = hostchunk / self.data_per_row();
        let i = hostchunk % self.data_per_row();
        let role = if self.cfg.parity {
            let p = self.parity_role(row) as u64;
            usize::try_from((p + 1 + i) % self.cfg.shards as u64).expect("role fits usize")
        } else {
            usize::try_from(i).expect("role fits usize")
        };
        (role, row * chunk + off, row)
    }

    /// Device currently serving `role` for `row` (rebuilt rows are served
    /// from the spare while a rebuild is in flight).
    fn dev_for(&self, role: usize, row: u64) -> usize {
        if self.health == ArrayHealth::Rebuilding
            && Some(role) == self.dead_role
            && row < self.rebuilt_rows
        {
            self.spare_dev.expect("rebuilding implies a spare")
        } else {
            self.role_dev[role]
        }
    }

    /// Whether `role`'s chunk of `row` is currently unreadable (dead
    /// device, not yet rebuilt).
    fn dead_here(&self, role: usize, row: u64) -> bool {
        match self.dead_role {
            Some(d) if d == role => {
                !(self.health == ArrayHealth::Rebuilding && row < self.rebuilt_rows)
            }
            _ => false,
        }
    }

    // ---- health ---------------------------------------------------------

    fn device_dead(&mut self, dev: usize) -> bool {
        if self.shards[dev].ssd().device_failed() {
            return true;
        }
        if self.cfg.fail_on_eol && self.shards[dev].end_of_life() {
            // Retire the shard outright so the death is permanent and the
            // device-level op gating takes over.
            self.shards[dev].fail_device();
            return true;
        }
        false
    }

    /// Scans active devices for new failures and advances the health
    /// state machine. Called at the top of every host-visible operation.
    fn poll_health(&mut self, now: SimTime) {
        if self.health == ArrayHealth::Failed {
            return;
        }
        // A spare that dies mid-rebuild aborts the rebuild: rows already
        // copied are gone with it, so reconstruction falls back to parity
        // for the whole dead shard.
        if self.health == ArrayHealth::Rebuilding {
            let spare = self.spare_dev.expect("rebuilding implies a spare");
            if self.device_dead(spare) {
                self.array_stats.device_failures += 1;
                self.spare_dev = None;
                self.rebuilt_rows = 0;
                self.health = ArrayHealth::Degraded;
            }
        }
        for role in 0..self.cfg.shards {
            let dev = self.role_dev[role];
            if Some(role) == self.dead_role || !self.device_dead(dev) {
                continue;
            }
            self.array_stats.device_failures += 1;
            if !self.cfg.parity || self.dead_role.is_some() {
                // No redundancy left to absorb this loss.
                self.health = ArrayHealth::Failed;
                if self.dead_role.is_none() {
                    self.dead_role = Some(role);
                }
                return;
            }
            self.dead_role = Some(role);
            match self.spare_dev {
                Some(spare) if !self.shards[spare].ssd().device_failed() => {
                    self.health = ArrayHealth::Rebuilding;
                    self.rebuilt_rows = 0;
                    self.rebuild_ready_at = now;
                    self.array_stats.rebuild_rows_total = self.rows;
                }
                _ => self.health = ArrayHealth::Degraded,
            }
        }
    }

    // ---- rebuild --------------------------------------------------------

    /// Background rebuild pump: copies stripe rows onto the spare, one
    /// row per `rebuild_interval`, as long as simulated time has reached
    /// the next slot. Driven from `maintain` and `idle`, i.e. interleaved
    /// with host traffic by the replay engine.
    fn pump_rebuild(&mut self, now: SimTime) {
        if self.health != ArrayHealth::Rebuilding {
            return;
        }
        let dead = self.dead_role.expect("rebuilding implies a dead role");
        let spare = self.spare_dev.expect("rebuilding implies a spare");
        let chunk = self.cfg.chunk_sectors;
        let m = u32::try_from(chunk).expect("chunk fits u32");
        while self.rebuilt_rows < self.rows && self.rebuild_ready_at <= now {
            let row = self.rebuilt_rows;
            let base = row * chunk;
            let at = self.rebuild_ready_at;
            let mut t = at;
            let mut vals = vec![0u64; usize::try_from(chunk).expect("chunk fits usize")];
            for role in 0..self.cfg.shards {
                if role == dead {
                    continue;
                }
                let dev = self.role_dev[role];
                t = t.max(self.shards[dev].read(base, m, at));
                for (k, v) in vals.iter_mut().enumerate() {
                    *v ^= self.stored[dev][usize::try_from(base).expect("sector fits usize") + k];
                }
            }
            let done = self.shards[spare].write(base, m, true, t);
            for (k, v) in vals.iter().enumerate() {
                self.stored[spare][usize::try_from(base).expect("sector fits usize") + k] = *v;
            }
            self.rebuilt_rows += 1;
            self.array_stats.rebuild_rows_done += 1;
            self.array_stats.reconstructed_sectors += chunk;
            self.rebuild_ready_at = done + self.cfg.rebuild_interval;
        }
        if self.rebuilt_rows == self.rows {
            // The spare takes over the dead shard's role permanently.
            self.role_dev[dead] = spare;
            self.spare_dev = None;
            self.dead_role = None;
            self.health = ArrayHealth::Healthy;
        }
    }

    // ---- data path ------------------------------------------------------

    fn refresh_stats(&mut self) {
        let mut agg = FtlStats::new();
        for s in &self.shards {
            agg = agg.plus(s.stats());
        }
        self.agg = agg;
    }

    /// One chunk-aligned write span; returns the host-visible completion.
    fn write_span(&mut self, host: u64, m: u32, sync: bool, issue: SimTime) -> SimTime {
        // Stamp the oracle first: the host handed us this data, so it is
        // "expected" even if the array then loses it.
        let mut vals = vec![0u64; m as usize];
        for (k, v) in vals.iter_mut().enumerate() {
            self.write_counter += 1;
            *v = self.write_counter;
            self.expected[usize::try_from(host).expect("sector fits usize") + k] = *v;
        }
        if self.health == ArrayHealth::Failed {
            self.array_stats.lost_write_sectors += u64::from(m);
            return issue;
        }
        let (role, ss, row) = self.locate(host);
        let si = usize::try_from(ss).expect("sector fits usize");
        let tdev = self.dev_for(role, row);
        if !self.cfg.parity {
            let done = self.shards[tdev].write(ss, m, sync, issue);
            self.stored[tdev][si..si + m as usize].copy_from_slice(&vals);
            return if sync { done } else { issue };
        }
        let prole = self.parity_role(row);
        let pdev = self.dev_for(prole, row);
        let target_dead = self.dead_here(role, row);
        let parity_dead = self.dead_here(prole, row);
        if target_dead {
            // Fold the new data into parity via the survivors: new parity
            // = XOR(surviving data chunks) ^ new data. The dead shard's
            // image is left frozen — reconstruction never consults it.
            let mut t = issue;
            let mut newp = vals.clone();
            for r in 0..self.cfg.shards {
                if r == role || r == prole {
                    continue;
                }
                let dev = self.dev_for(r, row);
                t = t.max(self.shards[dev].read(ss, m, issue));
                for (k, v) in newp.iter_mut().enumerate() {
                    *v ^= self.stored[dev][si + k];
                }
            }
            let done = self.shards[pdev].write(ss, m, sync, t);
            self.stored[pdev][si..si + m as usize].copy_from_slice(&newp);
            return if sync { done } else { issue };
        }
        if parity_dead {
            // Parity chunk of this row is on the dead shard: plain data
            // write, redundancy for this row is simply gone until rebuild.
            let done = self.shards[tdev].write(ss, m, sync, issue);
            self.stored[tdev][si..si + m as usize].copy_from_slice(&vals);
            return if sync { done } else { issue };
        }
        // Healthy read-modify-write parity update: read old data + old
        // parity in parallel, write data immediately, write parity once
        // both reads are in.
        let rd = self.shards[tdev].read(ss, m, issue);
        let rp = self.shards[pdev].read(ss, m, issue);
        let t = rd.max(rp);
        let mut newp = vec![0u64; m as usize];
        for (k, v) in newp.iter_mut().enumerate() {
            *v = self.stored[pdev][si + k] ^ self.stored[tdev][si + k] ^ vals[k];
        }
        let dw = self.shards[tdev].write(ss, m, sync, issue);
        let pw = self.shards[pdev].write(ss, m, sync, t);
        self.stored[tdev][si..si + m as usize].copy_from_slice(&vals);
        self.stored[pdev][si..si + m as usize].copy_from_slice(&newp);
        if sync {
            dw.max(pw)
        } else {
            issue
        }
    }

    /// One chunk-aligned read span; returns the host-visible completion.
    fn read_span(&mut self, host: u64, m: u32, issue: SimTime) -> SimTime {
        if self.health == ArrayHealth::Failed {
            self.array_stats.lost_read_sectors += u64::from(m);
            return issue;
        }
        let (role, ss, row) = self.locate(host);
        let si = usize::try_from(ss).expect("sector fits usize");
        let hi = usize::try_from(host).expect("sector fits usize");
        if !self.dead_here(role, row) {
            let dev = self.dev_for(role, row);
            let done = self.shards[dev].read(ss, m, issue);
            for k in 0..m as usize {
                if self.stored[dev][si + k] != self.expected[hi + k] {
                    self.array_stats.mismatch_sectors += 1;
                }
            }
            return done;
        }
        // Degraded read: XOR over every surviving chunk of the row (data
        // and parity alike), charged against the surviving devices.
        self.array_stats.degraded_reads += 1;
        self.array_stats.reconstructed_sectors += u64::from(m);
        let mut t = issue;
        let mut vals = vec![0u64; m as usize];
        for r in 0..self.cfg.shards {
            if r == role {
                continue;
            }
            let dev = self.dev_for(r, row);
            t = t.max(self.shards[dev].read(ss, m, issue));
            for (k, v) in vals.iter_mut().enumerate() {
                *v ^= self.stored[dev][si + k];
            }
        }
        for (k, v) in vals.iter().enumerate() {
            if *v != self.expected[hi + k] {
                self.array_stats.mismatch_sectors += 1;
            }
        }
        t
    }

    /// Splits `[lsn, lsn+sectors)` at chunk boundaries and runs `f` per
    /// span, returning the latest completion.
    fn for_spans(
        &mut self,
        lsn: u64,
        sectors: u32,
        issue: SimTime,
        mut f: impl FnMut(&mut Self, u64, u32) -> SimTime,
    ) -> SimTime {
        assert!(
            lsn + u64::from(sectors) <= self.logical,
            "request beyond array capacity"
        );
        let chunk = self.cfg.chunk_sectors;
        let mut s = lsn;
        let end = lsn + u64::from(sectors);
        let mut done = issue;
        while s < end {
            let span = (end - s).min(chunk - s % chunk);
            let m = u32::try_from(span).expect("span fits u32");
            done = done.max(f(self, s, m));
            s += span;
        }
        done
    }
}

impl Ftl for EspArray {
    fn name(&self) -> &'static str {
        "espARRAY"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.poll_health(issue);
        let done = self.for_spans(lsn, sectors, issue, |a, s, m| {
            a.write_span(s, m, sync, issue)
        });
        self.refresh_stats();
        done
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        self.poll_health(issue);
        let done = self.for_spans(lsn, sectors, issue, |a, s, m| a.read_span(s, m, issue));
        self.refresh_stats();
        done
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        self.poll_health(issue);
        let mut done = issue;
        for s in &mut self.shards {
            done = done.max(s.flush(issue));
        }
        self.refresh_stats();
        done
    }

    fn maintain(&mut self, now: SimTime) {
        self.poll_health(now);
        for s in &mut self.shards {
            s.maintain(now);
        }
        self.pump_rebuild(now);
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        for s in &mut self.shards {
            s.idle(from, until);
        }
        self.poll_health(until);
        self.pump_rebuild(until);
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        if lsn >= self.logical || self.health == ArrayHealth::Failed {
            return None;
        }
        let hi = usize::try_from(lsn).expect("sector fits usize");
        if self.expected[hi] == 0 {
            return None;
        }
        let (role, ss, row) = self.locate(lsn);
        let si = usize::try_from(ss).expect("sector fits usize");
        if !self.dead_here(role, row) {
            return Some(self.stored[self.dev_for(role, row)][si]);
        }
        if !self.cfg.parity {
            return None;
        }
        let mut v = 0u64;
        for r in 0..self.cfg.shards {
            if r != role {
                v ^= self.stored[self.dev_for(r, row)][si];
            }
        }
        Some(v)
    }

    fn trim(&mut self, _lsn: u64, _sectors: u32) {
        // Deliberate no-op: dropping a data chunk without rewriting the
        // row's parity would corrupt reconstruction, and a parity rewrite
        // costs more than the trim saves at this granularity.
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.mapping_memory_bytes()).sum()
    }

    fn stats(&self) -> &FtlStats {
        &self.agg
    }

    fn end_of_life(&self) -> bool {
        self.health == ArrayHealth::Failed
    }

    fn ssd(&self) -> &Ssd {
        // The runner samples device counters through this accessor; for
        // an array they reflect shard 0 only (per-device counters of the
        // other shards are reachable through [`EspArray::shard`]).
        self.shards[0].ssd()
    }

    fn fail_device(&mut self) {
        // "The device" is ambiguous for an array; kill shard 0 — tests
        // and the CLI use explicit per-shard kills instead.
        self.shards[0].fail_device();
    }

    fn enable_tracing(&mut self, capacity: usize) {
        for s in &mut self.shards {
            s.enable_tracing(capacity);
        }
    }

    fn events(&self) -> Vec<esp_sim::TraceEvent> {
        let mut all: Vec<esp_sim::TraceEvent> =
            self.shards.iter().flat_map(|s| s.events()).collect();
        all.sort_by_key(|e| e.at_ns);
        all
    }

    fn events_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.events_dropped()).sum()
    }
}

/// A device-death arm for [`shard_configs`]: `(device index, die_at_op,
/// die_at_pe)` — at least one of the two triggers should be set.
pub type KillSpec = (usize, Option<u64>, Option<u32>);

/// Clones `base` once per device, offsetting the fault seed by the
/// device index so shards draw independent fault streams. A `kill`
/// entry `(device, die_at_op, die_at_pe)` arms that device's death latch.
#[must_use]
pub fn shard_configs(
    base: &esp_core::FtlConfig,
    devices: usize,
    kill: Option<KillSpec>,
) -> Vec<esp_core::FtlConfig> {
    (0..devices)
        .map(|i| {
            let mut c = base.clone();
            if let Some(f) = &mut c.fault {
                f.seed = f.seed.wrapping_add(i as u64);
            }
            if let Some((dev, at_op, at_pe)) = kill {
                if dev == i && (at_op.is_some() || at_pe.is_some()) {
                    let f = c.fault.get_or_insert_with(|| esp_nand::FaultConfig {
                        seed: 0x5eed_0000 + i as u64,
                        ..Default::default()
                    });
                    f.die_at_op = at_op;
                    f.die_at_pe = at_pe;
                }
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_core::{run_trace_qd, CgmFtl, FgmFtl, FtlConfig, SectorLogFtl, SubFtl};
    use esp_workload::{generate, SyntheticConfig};

    fn build_shard(kind: &str, cfg: &FtlConfig) -> Box<dyn Ftl> {
        match kind {
            "sub" => Box::new(SubFtl::new(cfg)),
            "cgm" => Box::new(CgmFtl::new(cfg)),
            "fgm" => Box::new(FgmFtl::new(cfg)),
            "sectorlog" => Box::new(SectorLogFtl::new(cfg)),
            other => panic!("unknown ftl {other}"),
        }
    }

    fn tiny_array(kind: &str, acfg: ArrayConfig, kill: Option<(usize, u64)>) -> EspArray {
        let base = FtlConfig::tiny();
        let configs = shard_configs(
            &base,
            acfg.devices(),
            kill.map(|(dev, at)| (dev, Some(at), None)),
        );
        let shards = configs.iter().map(|c| build_shard(kind, c)).collect();
        EspArray::new(acfg, shards)
    }

    fn workload(footprint: u64, requests: u64, seed: u64) -> esp_workload::Trace {
        generate(&SyntheticConfig {
            footprint_sectors: footprint,
            requests,
            read_fraction: 0.4,
            seed,
            ..SyntheticConfig::default()
        })
    }

    #[test]
    fn mapping_covers_every_host_sector_exactly_once() {
        let a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: false,
                ..ArrayConfig::default()
            },
            None,
        );
        // Every host sector maps to a unique (role, shard sector), no
        // host sector lands on a row's parity chunk, and each row's
        // parity role rotates.
        let mut seen = std::collections::HashSet::new();
        for host in 0..a.logical_sectors() {
            let (role, ss, row) = a.locate(host);
            assert!(role < 3);
            assert_ne!(role, a.parity_role(row), "data must avoid the parity chunk");
            assert_eq!(ss / a.config().chunk_sectors, row);
            assert!(seen.insert((role, ss)), "double-mapped shard sector");
        }
        assert_eq!(a.parity_role(0), 0);
        assert_eq!(a.parity_role(1), 1);
        assert_eq!(a.parity_role(3), 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ArrayConfig {
            shards: 1,
            parity: false,
            spare: false,
            ..ArrayConfig::default()
        }
        .validate()
        .is_err());
        assert!(ArrayConfig {
            shards: 2,
            parity: true,
            spare: false,
            ..ArrayConfig::default()
        }
        .validate()
        .is_err());
        assert!(ArrayConfig {
            parity: false,
            spare: true,
            ..ArrayConfig::default()
        }
        .validate()
        .is_err());
        assert!(ArrayConfig {
            chunk_sectors: 0,
            ..ArrayConfig::default()
        }
        .validate()
        .is_err());
        assert!(ArrayConfig::default().validate().is_ok());
    }

    #[test]
    fn healthy_array_round_trips_and_stripes() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: false,
                ..ArrayConfig::default()
            },
            None,
        );
        let trace = workload(a.logical_sectors() / 2, 400, 7);
        let report = run_trace_qd(&mut a, &trace, 4);
        assert!(report.requests > 0);
        assert_eq!(a.health(), ArrayHealth::Healthy);
        assert_eq!(a.array_stats().data_loss_sectors(), 0);
        assert_eq!(a.array_stats().degraded_reads, 0);
        // Parity means every shard sees traffic.
        for dev in 0..a.devices() {
            assert!(
                a.shard(dev).stats().host_write_requests > 0,
                "shard {dev} untouched"
            );
        }
    }

    /// The acceptance property: one killed device in a parity array →
    /// every host sector reads back bit-identical to a no-fault run, for
    /// all four FTLs, with and without a hot spare.
    #[test]
    fn single_device_loss_loses_no_data_across_all_ftls() {
        for kind in ["sub", "cgm", "fgm", "sectorlog"] {
            for spare in [false, true] {
                let acfg = ArrayConfig {
                    shards: 3,
                    spare,
                    rebuild_interval: SimDuration::from_micros(50),
                    ..ArrayConfig::default()
                };
                let mut healthy = tiny_array(kind, acfg.clone(), None);
                let mut faulted = tiny_array(kind, acfg, Some((1, 400)));
                let trace = workload(healthy.logical_sectors() / 2, 600, 11);
                run_trace_qd(&mut healthy, &trace, 4);
                run_trace_qd(&mut faulted, &trace, 4);
                assert!(
                    faulted.array_stats().device_failures >= 1,
                    "{kind}: kill latch never tripped"
                );
                assert_ne!(faulted.health(), ArrayHealth::Failed, "{kind}");
                assert_eq!(
                    faulted.array_stats().data_loss_sectors(),
                    0,
                    "{kind} spare={spare}: data loss after single device loss"
                );
                for lsn in 0..healthy.logical_sectors() {
                    assert_eq!(
                        faulted.stored_seq(lsn),
                        healthy.stored_seq(lsn),
                        "{kind} spare={spare}: content diverged at sector {lsn}"
                    );
                }
            }
        }
    }

    #[test]
    fn device_loss_without_spare_degrades_and_reconstructs_reads() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: false,
                ..ArrayConfig::default()
            },
            Some((0, 200)),
        );
        let trace = workload(a.logical_sectors() / 2, 600, 3);
        run_trace_qd(&mut a, &trace, 4);
        assert_eq!(a.health(), ArrayHealth::Degraded);
        assert!(a.array_stats().degraded_reads > 0, "no degraded reads seen");
        assert!(a.array_stats().reconstructed_sectors > 0);
        assert_eq!(a.array_stats().data_loss_sectors(), 0);
        // A degraded read costs real survivor time, not zero.
        let t = SimTime::from_secs(1_000);
        let done = a.read(0, 4, t);
        assert!(done > t, "degraded read must charge survivor latency");
    }

    #[test]
    fn rebuild_completes_onto_spare_and_returns_healthy() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: true,
                rebuild_interval: SimDuration::from_micros(10),
                ..ArrayConfig::default()
            },
            Some((1, 300)),
        );
        let trace = workload(a.logical_sectors() / 2, 600, 5);
        run_trace_qd(&mut a, &trace, 4);
        assert!(matches!(
            a.health(),
            ArrayHealth::Rebuilding | ArrayHealth::Healthy
        ));
        // Give the rebuild pump idle time until it finishes.
        let mut now = SimTime::from_secs(10);
        for _ in 0..1_000 {
            if a.health() == ArrayHealth::Healthy {
                break;
            }
            let next = now + SimDuration::from_millis(100);
            a.idle(now, next);
            now = next;
        }
        assert_eq!(a.health(), ArrayHealth::Healthy, "rebuild never finished");
        assert_eq!(a.array_stats().rebuild_rows_done, a.rows());
        assert_eq!(a.array_stats().data_loss_sectors(), 0);
        // Post-rebuild reads are served without reconstruction and still
        // match the oracle.
        let before = a.array_stats().degraded_reads;
        for lsn in (0..a.logical_sectors()).step_by(4) {
            a.read(lsn, 4, now);
        }
        assert_eq!(a.array_stats().degraded_reads, before);
        assert_eq!(a.array_stats().mismatch_sectors, 0);
    }

    #[test]
    fn raid0_device_loss_fails_the_array() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                parity: false,
                spare: false,
                ..ArrayConfig::default()
            },
            Some((1, 150)),
        );
        let trace = workload(a.logical_sectors() / 2, 500, 9);
        run_trace_qd(&mut a, &trace, 4);
        assert_eq!(a.health(), ArrayHealth::Failed);
        assert!(a.end_of_life());
        assert!(
            a.array_stats().data_loss_sectors() > 0,
            "RAID-0 death must lose data"
        );
        assert_eq!(a.stored_seq(0), None);
    }

    #[test]
    fn second_device_loss_fails_a_degraded_array() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: false,
                ..ArrayConfig::default()
            },
            None,
        );
        let t = SimTime::ZERO;
        a.write(0, 8, true, t);
        assert_eq!(a.health(), ArrayHealth::Healthy);
        a.shards[0].fail_device();
        a.maintain(t);
        assert_eq!(a.health(), ArrayHealth::Degraded);
        a.shards[1].fail_device();
        a.maintain(t);
        assert_eq!(a.health(), ArrayHealth::Failed);
        assert_eq!(a.array_stats().device_failures, 2);
    }

    #[test]
    fn aggregate_stats_are_the_fieldwise_sum_over_shards() {
        let mut a = tiny_array(
            "sub",
            ArrayConfig {
                shards: 3,
                spare: false,
                ..ArrayConfig::default()
            },
            None,
        );
        let trace = workload(a.logical_sectors() / 2, 300, 13);
        run_trace_qd(&mut a, &trace, 2);
        let sum: u64 = (0..a.devices())
            .map(|d| a.shard(d).stats().flash_sectors_consumed)
            .sum();
        assert_eq!(a.stats().flash_sectors_consumed, sum);
        assert!(sum > 0);
    }
}
