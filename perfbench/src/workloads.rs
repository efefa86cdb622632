//! The benchmark's three workloads: device geometry, cells (FTL ×
//! input), and the seeded inputs each cell replays.
//!
//! `README.md` next to `Cargo.toml` records why each workload was chosen,
//! its working set and which layers it is meant to stress.

use esp_core::{
    CgmFtl, FgmFtl, Ftl, FtlConfig, MapCacheConfig, SectorLogFtl, SubFtl, TenantConfig, TenantSet,
};
use esp_nand::Geometry;
use esp_workload::{generate, Benchmark, SyntheticConfig, Trace};

/// Host queue depth of every replay.
pub const QUEUE_DEPTH: usize = 8;

/// Preconditioning fill (the paper's 10 GB of 16 GB) and the share of the
/// logical space the closed-loop profiles address.
pub const FILL_FRACTION: f64 = 0.625;

/// `bulk_big`'s map-cache cell caches this many translation pages, one
/// twelfth of fgmFTL's 192-page map at the 4 GiB geometry.
pub const BULK_CMT_PAGES: usize = 16;

/// `tenants_open` victim: Poisson open arrivals at this rate (requests/s).
pub const VICTIM_RATE: f64 = 400.0;
/// `tenants_open` neighbour: token-bucket rate (requests/s) and burst.
pub const NEIGHBOUR_RATE: f64 = 400.0;
/// Token-bucket burst of the `tenants_open` neighbour.
pub const NEIGHBOUR_BURST: u32 = 8;
/// DRR weight of the `tenants_open` victim (the neighbour has weight 1).
pub const VICTIM_WEIGHT: u32 = 4;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sync small writes (Sysbench, Varmail, Postmark) on four FTLs at the
    /// 512 MiB experiment geometry: the foreground write path.
    SmallSync,
    /// Large sequential writes (YCSB, TPC-C) on four FTLs plus a map-cache
    /// cell at the 4 GiB geometry: foreground GC and the map cache.
    BulkBig,
    /// Two tenants (open-arrival reader, throttled sync writer) with
    /// background GC: admission, DRR, idle windows and the read path.
    TenantsOpen,
}

/// Which FTL a cell builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Coarse-grained page mapping.
    Cgm,
    /// Fine-grained sector mapping.
    Fgm,
    /// The paper's ESP-aware subFTL.
    Sub,
    /// The sector-log hybrid.
    SectorLog,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Cgm, Kind::Fgm, Kind::Sub, Kind::SectorLog];

    fn name(self) -> &'static str {
        match self {
            Kind::Cgm => "cgmFTL",
            Kind::Fgm => "fgmFTL",
            Kind::Sub => "subFTL",
            Kind::SectorLog => "sectorLogFTL",
        }
    }

    fn build(self, cfg: &FtlConfig) -> Box<dyn Ftl> {
        match self {
            Kind::Cgm => Box::new(CgmFtl::new(cfg)),
            Kind::Fgm => Box::new(FgmFtl::new(cfg)),
            Kind::Sub => Box::new(SubFtl::new(cfg)),
            Kind::SectorLog => Box::new(SectorLogFtl::new(cfg)),
        }
    }
}

/// One replay: an FTL (optionally with a map cache) over one input.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label, also the key of the cell's output reference.
    pub label: String,
    kind: Kind,
    map_cache: Option<usize>,
    /// Index into the workload's inputs.
    pub input: usize,
}

impl Cell {
    fn new(kind: Kind, input: usize, input_name: &str) -> Self {
        Cell {
            label: format!("{} {input_name}", kind.name()),
            kind,
            map_cache: None,
            input,
        }
    }

    /// Builds the cell's FTL over the workload's base configuration.
    #[must_use]
    pub fn build(&self, base: &FtlConfig) -> Box<dyn Ftl> {
        let cfg = FtlConfig {
            map_cache: self.map_cache.map(|cmt_pages| MapCacheConfig { cmt_pages }),
            ..base.clone()
        };
        self.kind.build(&cfg)
    }
}

/// What a cell replays.
pub enum Input {
    /// A closed-loop trace replayed by `run_trace_qd`.
    Closed(Trace),
    /// A tenant set replayed by `run_tenants_qd`.
    Tenants(TenantSet),
}

impl Input {
    /// Host requests in the input.
    #[must_use]
    pub fn requests(&self) -> u64 {
        match self {
            Input::Closed(t) => t.len() as u64,
            Input::Tenants(s) => s.total_requests(),
        }
    }
}

/// Mixes the command-line seed with an input's index, so each input of a
/// workload draws its own stream and equal seeds give equal inputs.
fn input_seed(seed: u64, input: u64) -> u64 {
    let mut z = seed ^ (input + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn experiment_geometry() -> Geometry {
    Geometry {
        blocks_per_chip: 16,
        pages_per_block: 64,
        ..Geometry::paper_default()
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SmallSync,
        Workload::BulkBig,
        Workload::TenantsOpen,
    ];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallSync => "smallsync",
            Workload::BulkBig => "bulk_big",
            Workload::TenantsOpen => "tenants_open",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per closed-loop trace, or per tenant, at full length.
    #[must_use]
    pub fn length(self) -> u64 {
        match self {
            Workload::SmallSync => 60_000,
            Workload::BulkBig => 250_000,
            Workload::TenantsOpen => 50_000,
        }
    }

    /// The FTL configuration every cell starts from.
    #[must_use]
    pub fn config(self) -> FtlConfig {
        let base = FtlConfig::paper_default();
        match self {
            Workload::SmallSync => FtlConfig {
                geometry: experiment_geometry(),
                ..base
            },
            Workload::BulkBig => base,
            Workload::TenantsOpen => FtlConfig {
                geometry: experiment_geometry(),
                background_gc: true,
                ..base
            },
        }
    }

    fn profiles(self) -> &'static [Benchmark] {
        match self {
            Workload::SmallSync => &[Benchmark::Sysbench, Benchmark::Varmail, Benchmark::Postmark],
            Workload::BulkBig => &[Benchmark::Ycsb, Benchmark::TpcC],
            Workload::TenantsOpen => &[],
        }
    }

    /// The cells, in replay order.
    #[must_use]
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::SmallSync | Workload::BulkBig => {
                let mut cells: Vec<Cell> = self
                    .profiles()
                    .iter()
                    .enumerate()
                    .flat_map(|(i, b)| Kind::ALL.map(|k| Cell::new(k, i, b.name())))
                    .collect();
                if self == Workload::BulkBig {
                    let mut cached = Cell::new(Kind::Fgm, 0, Benchmark::Ycsb.name());
                    cached.label = format!("fgmFTL+cmt{BULK_CMT_PAGES} YCSB");
                    cached.map_cache = Some(BULK_CMT_PAGES);
                    cells.push(cached);
                }
                cells
            }
            Workload::TenantsOpen => [Kind::Cgm, Kind::Fgm, Kind::Sub]
                .map(|k| Cell::new(k, 0, "victim+neighbour"))
                .to_vec(),
        }
    }

    /// Generates the workload's inputs for `seed`, with `length` requests
    /// per trace (see [`Workload::length`]).
    #[must_use]
    pub fn inputs(self, seed: u64, length: u64) -> Vec<Input> {
        let cfg = self.config();
        let logical = cfg.logical_sectors() as f64;
        match self {
            Workload::SmallSync | Workload::BulkBig => {
                let footprint = (logical * FILL_FRACTION) as u64;
                self.profiles()
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let c = b.config(footprint, length, input_seed(seed, i as u64));
                        Input::Closed(generate(&c))
                    })
                    .collect()
            }
            Workload::TenantsOpen => {
                let victim_fp = (logical * FILL_FRACTION / 4.0) as u64;
                let neighbour_fp = (logical * FILL_FRACTION / 2.0) as u64;
                let small = |footprint: u64, read_fraction: f64, input: u64| SyntheticConfig {
                    footprint_sectors: footprint,
                    requests: length,
                    r_small: 1.0,
                    r_synch: 1.0,
                    read_fraction,
                    zipf_theta: 0.9,
                    small_zone_sectors: Some((footprint / 64).max(64)),
                    rewrite_distance: 512,
                    seed: input_seed(seed, input),
                    ..SyntheticConfig::default()
                };
                let victim = generate(&small(victim_fp, 0.8, 0))
                    .with_poisson_arrivals(VICTIM_RATE, input_seed(seed, 1));
                let neighbour = generate(&small(neighbour_fp, 0.0, 2));
                let mut set = TenantSet::new();
                set.add(TenantConfig::new("victim").weight(VICTIM_WEIGHT), victim);
                set.add(
                    TenantConfig::new("neighbour").limit(NEIGHBOUR_RATE, NEIGHBOUR_BURST),
                    neighbour,
                );
                vec![Input::Tenants(set)]
            }
        }
    }
}
