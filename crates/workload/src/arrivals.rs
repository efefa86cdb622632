//! Per-tenant arrival processes for served-traffic replay.
//!
//! [`Trace::with_poisson_arrivals`] covers the stationary open-arrival
//! case; multi-tenant replay needs richer offered-load shapes. An
//! [`ArrivalModel`] restamps a trace's arrival times with one of four
//! processes:
//!
//! * [`ArrivalModel::Closed`] — all arrivals at time zero: the host
//!   offers the next request as soon as a queue slot frees (the
//!   replay-as-fast-as-possible default).
//! * [`ArrivalModel::Poisson`] — stationary open arrivals at a fixed
//!   mean rate (delegates to [`Trace::with_poisson_arrivals`]).
//! * [`ArrivalModel::OnOff`] — bursty traffic: Poisson arrivals at
//!   `rate` during ON windows, silence during OFF windows, repeating.
//! * [`ArrivalModel::Diurnal`] — a non-homogeneous Poisson process whose
//!   instantaneous rate follows a triangle wave between `trough` and
//!   `peak` over `period` (a portable stand-in for day/night load
//!   cycles — a triangle rather than a sinusoid so no transcendental
//!   libm calls enter the deterministic replay path).
//!
//! Mixing one `Closed` tenant with open tenants yields the closed+open
//! mixes used by the noisy-neighbor experiments: the closed tenant
//! saturates whatever bandwidth admission control grants it while the
//! open tenants' response times are measured against wall-clock
//! arrivals.
//!
//! All processes are deterministic for a given seed. Request order,
//! addresses, sizes and sync flags are untouched; only arrival stamps
//! change, and they are non-decreasing in trace order.

use std::fmt;
use std::str::FromStr;

use esp_sim::{Rng, SimDuration, SimTime};

use crate::request::Trace;

/// An open- or closed-loop arrival process used to restamp a [`Trace`].
///
/// Parse one from a compact spec string (the espsim `--arrival-model`
/// syntax) via [`FromStr`]:
///
/// ```text
/// closed
/// poisson:<rate>                      e.g. poisson:2000
/// onoff:<rate>:<on_ms>:<off_ms>       e.g. onoff:4000:50:200
/// diurnal:<trough>:<peak>:<period_s>  e.g. diurnal:500:3000:2
/// ```
///
/// # Examples
///
/// ```
/// use esp_workload::{generate, ArrivalModel, SyntheticConfig};
///
/// let trace = generate(&SyntheticConfig {
///     requests: 100,
///     ..SyntheticConfig::default()
/// });
/// let model: ArrivalModel = "onoff:1000:10:40".parse().unwrap();
/// let bursty = model.apply(&trace, 7);
/// assert_eq!(bursty.len(), trace.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Closed loop: every arrival stamped at time zero.
    Closed,
    /// Stationary Poisson arrivals at `rate` requests per second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Bursty on/off traffic: Poisson at `rate` inside ON windows of
    /// length `on`, nothing during OFF windows of length `off`.
    OnOff {
        /// Arrival rate inside an ON window, requests per second.
        rate: f64,
        /// ON window length.
        on: SimDuration,
        /// OFF window length.
        off: SimDuration,
    },
    /// Diurnally modulated Poisson arrivals: the instantaneous rate
    /// follows a triangle wave from `trough` (at phase 0) up to `peak`
    /// (at half `period`) and back.
    Diurnal {
        /// Minimum instantaneous rate, requests per second.
        trough: f64,
        /// Maximum instantaneous rate, requests per second.
        peak: f64,
        /// Length of one full trough→peak→trough cycle.
        period: SimDuration,
    },
}

impl ArrivalModel {
    /// Restamps `trace`'s arrivals with this process. Deterministic for
    /// a given `seed`; everything but the arrival times is preserved.
    #[must_use]
    pub fn apply(&self, trace: &Trace, seed: u64) -> Trace {
        match *self {
            ArrivalModel::Closed => {
                let mut out = trace.clone();
                for r in &mut out.requests {
                    r.arrival = SimTime::ZERO;
                }
                out
            }
            ArrivalModel::Poisson { rate } => trace.with_poisson_arrivals(rate, seed),
            ArrivalModel::OnOff { rate, on, off } => {
                let mean_ns = 1e9 / rate;
                let (on_ns, off_ns) = (on.as_nanos(), off.as_nanos());
                let period_ns = on_ns + off_ns;
                let mut rng = Rng::seed_from(seed);
                let mut clock_ns: u64 = 0;
                let mut out = trace.clone();
                for r in &mut out.requests {
                    // Exponential gap at the ON rate, then skip over any
                    // OFF phase the candidate instant lands in.
                    let gap = (mean_ns * -(1.0 - rng.next_f64()).ln()) as u64;
                    clock_ns += gap;
                    if clock_ns % period_ns >= on_ns {
                        // Jump to the start of the next ON window.
                        clock_ns = (clock_ns / period_ns + 1) * period_ns;
                    }
                    r.arrival = SimTime::from_nanos(clock_ns);
                }
                out
            }
            ArrivalModel::Diurnal {
                trough,
                peak,
                period,
            } => {
                // Lewis–Shedler thinning against the peak rate. The
                // triangle wave keeps the acceptance test in pure
                // arithmetic, so results are bit-stable across hosts.
                let period_ns = period.as_nanos();
                let mean_peak_ns = 1e9 / peak;
                let mut rng = Rng::seed_from(seed);
                let mut clock_ns: u64 = 0;
                let mut out = trace.clone();
                for r in &mut out.requests {
                    loop {
                        let gap = (mean_peak_ns * -(1.0 - rng.next_f64()).ln()) as u64;
                        clock_ns += gap;
                        let phase = (clock_ns % period_ns) as f64 / period_ns as f64;
                        let wave = 1.0 - (2.0 * phase - 1.0).abs(); // 0 at phase 0/1, 1 at 0.5
                        let rate_now = trough + (peak - trough) * wave;
                        if rng.chance(rate_now / peak) {
                            break;
                        }
                    }
                    r.arrival = SimTime::from_nanos(clock_ns);
                }
                out
            }
        }
    }

    fn validate(self) -> Result<Self, ParseArrivalError> {
        let bad = |reason: &str| Err(ParseArrivalError(reason.to_string()));
        let rate_ok = |r: f64| r.is_finite() && r > 0.0;
        match self {
            ArrivalModel::Closed => Ok(self),
            ArrivalModel::Poisson { rate } if !rate_ok(rate) => {
                bad("poisson rate must be positive")
            }
            ArrivalModel::OnOff { rate, on, off } => {
                if !rate_ok(rate) {
                    return bad("onoff rate must be positive");
                }
                if on.as_nanos() == 0 || off.as_nanos() == 0 {
                    return bad("onoff windows must be nonzero");
                }
                Ok(self)
            }
            ArrivalModel::Diurnal {
                trough,
                peak,
                period,
            } => {
                if !rate_ok(trough) || !rate_ok(peak) || peak < trough {
                    return bad("diurnal needs 0 < trough <= peak");
                }
                if period.as_nanos() == 0 {
                    return bad("diurnal period must be nonzero");
                }
                Ok(self)
            }
            _ => Ok(self),
        }
    }
}

/// A spec string that does not describe an [`ArrivalModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArrivalError(String);

impl fmt::Display for ParseArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; expected closed | poisson:<rate> | onoff:<rate>:<on_ms>:<off_ms> | \
             diurnal:<trough>:<peak>:<period_s>",
            self.0
        )
    }
}

impl std::error::Error for ParseArrivalError {}

impl FromStr for ArrivalModel {
    type Err = ParseArrivalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.trim().split(':').collect();
        let num = |field: &str, what: &str| -> Result<f64, ParseArrivalError> {
            field
                .parse::<f64>()
                .map_err(|_| ParseArrivalError(format!("bad {what} `{field}`")))
        };
        let model = match parts.as_slice() {
            ["closed"] => ArrivalModel::Closed,
            ["poisson", rate] => ArrivalModel::Poisson {
                rate: num(rate, "rate")?,
            },
            ["onoff", rate, on_ms, off_ms] => ArrivalModel::OnOff {
                rate: num(rate, "rate")?,
                on: SimDuration::from_nanos((num(on_ms, "on_ms")?.max(0.0) * 1e6) as u64),
                off: SimDuration::from_nanos((num(off_ms, "off_ms")?.max(0.0) * 1e6) as u64),
            },
            ["diurnal", trough, peak, period_s] => ArrivalModel::Diurnal {
                trough: num(trough, "trough rate")?,
                peak: num(peak, "peak rate")?,
                period: SimDuration::from_nanos((num(period_s, "period_s")?.max(0.0) * 1e9) as u64),
            },
            _ => {
                return Err(ParseArrivalError(format!("unknown arrival model `{s}`")));
            }
        };
        model.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};

    fn sample(requests: u64) -> Trace {
        generate(&SyntheticConfig {
            requests,
            ..SyntheticConfig::default()
        })
    }

    fn span_secs(t: &Trace) -> f64 {
        t.requests.last().unwrap().arrival.as_nanos() as f64 / 1e9
    }

    #[test]
    fn specs_parse_and_bad_specs_do_not() {
        assert_eq!(
            "closed".parse::<ArrivalModel>().unwrap(),
            ArrivalModel::Closed
        );
        assert_eq!(
            "poisson:2500".parse::<ArrivalModel>().unwrap(),
            ArrivalModel::Poisson { rate: 2500.0 }
        );
        assert_eq!(
            "onoff:4000:50:200".parse::<ArrivalModel>().unwrap(),
            ArrivalModel::OnOff {
                rate: 4000.0,
                on: SimDuration::from_nanos(50_000_000),
                off: SimDuration::from_nanos(200_000_000),
            }
        );
        assert!(matches!(
            "diurnal:500:3000:2".parse::<ArrivalModel>().unwrap(),
            ArrivalModel::Diurnal { .. }
        ));
        for bad in [
            "banana",
            "poisson",
            "poisson:-1",
            "poisson:x",
            "onoff:100:0:5",
            "diurnal:3000:500:2", // peak below trough
            "diurnal:500:3000:0",
        ] {
            assert!(bad.parse::<ArrivalModel>().is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn apply_is_deterministic_and_preserves_everything_but_arrivals() {
        let t = sample(500);
        for spec in [
            "closed",
            "poisson:5000",
            "onoff:8000:5:20",
            "diurnal:1000:9000:1",
        ] {
            let m: ArrivalModel = spec.parse().unwrap();
            let a = m.apply(&t, 42);
            let b = m.apply(&t, 42);
            assert_eq!(a, b, "{spec} must be deterministic");
            assert_eq!(a.len(), t.len());
            for (orig, new) in t.iter().zip(a.iter()) {
                assert_eq!(
                    (orig.op, orig.lsn, orig.sectors, orig.sync),
                    (new.op, new.lsn, new.sectors, new.sync)
                );
            }
            // Arrivals are sorted (the replay loop admits in trace order).
            assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }
    }

    #[test]
    fn closed_zeroes_every_arrival() {
        let t = sample(100).with_poisson_arrivals(1000.0, 3);
        let c = ArrivalModel::Closed.apply(&t, 0);
        assert!(c.iter().all(|r| r.arrival == SimTime::ZERO));
    }

    #[test]
    fn poisson_hits_the_requested_mean_rate() {
        let t = sample(20_000);
        let m = ArrivalModel::Poisson { rate: 10_000.0 };
        let rate = 20_000.0 / span_secs(&m.apply(&t, 9));
        assert!((rate / 10_000.0 - 1.0).abs() < 0.05, "measured {rate}");
    }

    #[test]
    fn onoff_duty_cycle_caps_the_mean_rate() {
        // 10 ms ON / 40 ms OFF at 10k/s inside bursts -> ~2k/s mean.
        let m: ArrivalModel = "onoff:10000:10:40".parse().unwrap();
        let t = sample(10_000);
        let stamped = m.apply(&t, 11);
        let mean = 10_000.0 / span_secs(&stamped);
        assert!((1500.0..2500.0).contains(&mean), "mean rate {mean}");
        // No arrival lands inside an OFF window.
        for r in &stamped {
            assert!(r.arrival.as_nanos() % 50_000_000 < 10_000_000, "{r:?}");
        }
    }

    #[test]
    fn diurnal_mean_rate_sits_between_trough_and_peak() {
        let m: ArrivalModel = "diurnal:1000:9000:1".parse().unwrap();
        let t = sample(20_000);
        let mean = 20_000.0 / span_secs(&m.apply(&t, 5));
        // Triangle-wave modulation: mean of the instantaneous rate is
        // (trough + peak) / 2 = 5000/s.
        assert!((4000.0..6000.0).contains(&mean), "mean rate {mean}");
    }
}
