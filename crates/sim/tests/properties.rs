//! Randomized property tests for the simulation substrate, driven by the
//! crate's own deterministic [`Rng`] (no external test-framework
//! dependencies; every case is reproducible from the printed seed).

use esp_sim::{Resource, Rng, SimDuration, SimTime, Zipf};

const CASES: u64 = 64;

/// A resource never starts an op before it was requested, never overlaps
/// ops, and its busy time equals the sum of scheduled durations.
#[test]
fn resource_schedule_is_serial_and_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0xA11CE ^ seed);
        let n = rng.next_in(1, 99) as usize;
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(10_000), rng.next_in(1, 4_999)))
            .collect();
        let mut r = Resource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(earliest, dur) in &ops {
            let earliest = SimTime::from_nanos(earliest);
            let dur = SimDuration::from_nanos(dur);
            let end = r.occupy(earliest, dur);
            // Start = end - dur must be >= both the request time and the
            // previous completion.
            let start = SimTime::from_nanos(end.as_nanos() - dur.as_nanos());
            assert!(start >= earliest, "seed {seed}");
            assert!(start >= prev_end, "seed {seed}");
            prev_end = end;
            total += dur;
        }
        assert_eq!(r.busy_time(), total, "seed {seed}");
        assert_eq!(r.op_count(), ops.len() as u64, "seed {seed}");
        assert_eq!(r.next_free(), prev_end, "seed {seed}");
    }
}

/// Makespan (latest completion) is at least the busy time of any single
/// resource and at most the sum of all durations (serial execution).
#[test]
fn multi_resource_makespan_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0xB0B0 ^ seed);
        let n = rng.next_in(1, 199) as usize;
        let mut resources = vec![Resource::new(); 4];
        let mut makespan = SimTime::ZERO;
        let mut serial = SimDuration::ZERO;
        for _ in 0..n {
            let which = rng.next_below(4) as usize;
            let dur = SimDuration::from_nanos(rng.next_in(1, 999));
            let end = resources[which].occupy(SimTime::ZERO, dur);
            makespan = makespan.max(end);
            serial += dur;
        }
        for r in &resources {
            assert!(
                makespan.saturating_since(SimTime::ZERO) >= r.busy_time(),
                "seed {seed}"
            );
        }
        assert!(
            makespan.saturating_since(SimTime::ZERO) <= serial.max(SimDuration::ZERO),
            "seed {seed}"
        );
    }
}

/// next_below is always within bounds for arbitrary seeds and bounds.
#[test]
fn rng_bounds_hold() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from(0xC0FFEE ^ case);
        let seed = meta.next_u64();
        let bound = meta.next_in(1, 1_000_000);
        let mut rng = Rng::seed_from(seed);
        for _ in 0..100 {
            assert!(rng.next_below(bound) < bound, "seed {seed} bound {bound}");
        }
    }
}

/// Zipf samples are always valid ranks.
#[test]
fn zipf_in_range() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from(0x21BF ^ case);
        let seed = meta.next_u64();
        let n = meta.next_in(1, 100_000);
        let theta = meta.next_f64() * 0.999;
        let zipf = Zipf::new(n, theta);
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            assert!(zipf.sample(&mut rng) < n, "seed {seed} n {n} theta {theta}");
        }
    }
}

/// Time arithmetic: (t + d) - t == d for all representable pairs.
#[test]
fn time_add_sub_inverse() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0x7123 ^ seed);
        let t = SimTime::from_nanos(rng.next_below(u64::MAX / 2));
        let d = SimDuration::from_nanos(rng.next_below(u64::MAX / 4));
        assert_eq!((t + d) - t, d, "seed {seed}");
    }
}
