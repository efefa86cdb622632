//! Pluggable garbage-collection victim selection.
//!
//! Every FTL in this crate used to hard-code greedy victim selection
//! (fewest valid units wins). This module extracts that decision into a
//! single policy point shared by both victim sites — the block pool
//! behind cgmFTL, fgmFTL, sector-log's two regions and subFTL's full-page
//! region, and subFTL's subpage region — so alternatives from the flash
//! GC literature (Dayan & Bonnet, *Garbage Collection Techniques for
//! Flash-Resident Page-Mapping FTLs*) can be compared apples-to-apples:
//!
//! * [`GcPolicyKind::Greedy`] — fewest valid units; the historical
//!   behaviour and the default (bit-identical to pre-policy builds).
//! * [`GcPolicyKind::CostBenefit`] — maximize
//!   `age × (1 − u) / 2u` where `u` is the victim's valid fraction;
//!   cold, mostly-invalid blocks are preferred even when a slightly
//!   emptier hot block exists, cutting repeat-migration of hot data.
//! * [`GcPolicyKind::WindowedGreedy`] — greedy restricted to the `W`
//!   oldest closed blocks; bounds the age of anything GC touches so hot
//!   pages get time to self-invalidate before their block is collected.
//!
//! Age is a logical clock: each engine stamps a monotone sequence number
//! on a block when it becomes fully programmed ("closed"); a block's age
//! is the distance from that stamp to the current counter. Blocks
//! restored by mount-time recovery carry stamp 0 and therefore look
//! maximally old, which is the safe direction for both non-greedy
//! policies.
//!
//! Wear-leveling victim slack (the `wear_leveling` config flag) composes
//! with every policy: the policy picks a reference victim, and the final
//! choice is the least-worn candidate whose valid count is within the
//! slack window above the reference — exactly the pre-policy behaviour
//! when the policy is greedy.

/// Which victim-selection policy the GC uses. Selected per-run via
/// `FtlConfig::gc_policy` / espsim `--gc-policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GcPolicyKind {
    /// Fewest valid units wins (ties broken by lowest block index).
    /// The historical hard-coded behaviour; results are bit-identical
    /// to pre-policy builds.
    #[default]
    Greedy,
    /// Cost-benefit: minimize `2·valid / ((capacity − valid) · age)`,
    /// i.e. maximize reclaimed space per copy cost weighted by how long
    /// the block has been left alone (Dayan & Bonnet's CB policy).
    CostBenefit,
    /// Greedy over the window of the `WINDOW` oldest closed blocks.
    WindowedGreedy,
}

impl GcPolicyKind {
    /// All selectable policies, in CLI/report order.
    pub const ALL: [GcPolicyKind; 3] = [
        GcPolicyKind::Greedy,
        GcPolicyKind::CostBenefit,
        GcPolicyKind::WindowedGreedy,
    ];

    /// Stable CLI / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GcPolicyKind::Greedy => "greedy",
            GcPolicyKind::CostBenefit => "cost-benefit",
            GcPolicyKind::WindowedGreedy => "windowed-greedy",
        }
    }
}

impl std::fmt::Display for GcPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for GcPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(GcPolicyKind::Greedy),
            "cost-benefit" | "cb" => Ok(GcPolicyKind::CostBenefit),
            "windowed-greedy" | "windowed" => Ok(GcPolicyKind::WindowedGreedy),
            other => Err(format!(
                "unknown GC policy '{other}' (expected greedy, cost-benefit, \
                 or windowed-greedy)"
            )),
        }
    }
}

/// Number of oldest closed blocks [`GcPolicyKind::WindowedGreedy`]
/// considers.
pub const WINDOW: usize = 16;

/// Right-shift applied to a pool's per-block capacity to derive the
/// wear-leveling valid-count slack (capacity/8, minimum 1). Shared by
/// every victim site so the wear bias is proportional everywhere.
pub(crate) const VICTIM_WEAR_SLACK_SHIFT: u32 = 3;

/// One collectable block, as seen by the policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VictimCandidate {
    /// Pool-local block index (what the caller gets back).
    pub(crate) index: u32,
    /// Valid units still in the block (pages, subpages, or sectors —
    /// whatever the pool's copy currency is).
    pub(crate) valid: u32,
    /// Units per block in this pool; `valid == capacity` means nothing
    /// is reclaimed by collecting it.
    pub(crate) capacity: u32,
    /// Logical age: engine close-counter minus the block's close stamp.
    /// Larger = closed longer ago. Recovery-restored blocks report the
    /// full counter value (maximally old).
    pub(crate) age: u64,
    /// Effective program/erase wear (milli-P/E); used only when
    /// `wear_leveling` is set in [`SelectOpts`].
    pub(crate) wear: u32,
}

/// Per-site knobs for [`select_victim`]. The victim sites differ only in
/// two details of the historical wear-slack path, preserved here
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelectOpts {
    /// Apply the wear-leveling slack pass after the policy's choice.
    pub(crate) wear_leveling: bool,
    /// Historical quirk (the block-pool site): when the best candidate is
    /// fully valid, skip the wear pass and return it directly. subFTL's
    /// subpage region never short-circuits.
    pub(crate) early_return_full: bool,
    /// Historical quirk (same site): cap the slack window at
    /// `capacity − 1` so a fully-valid block is never chosen over a
    /// partially-invalid one. subFTL applies no cap.
    pub(crate) cap_limit: bool,
}

impl SelectOpts {
    /// The block pool's flavour (cgm, fgm, sector-log, subFTL's full-page
    /// region).
    #[must_use]
    pub(crate) fn standard(wear_leveling: bool) -> Self {
        SelectOpts {
            wear_leveling,
            early_return_full: true,
            cap_limit: true,
        }
    }

    /// subFTL's subpage-region flavour (no early return, no cap).
    #[must_use]
    pub(crate) fn subpage(wear_leveling: bool) -> Self {
        SelectOpts {
            wear_leveling,
            early_return_full: false,
            cap_limit: false,
        }
    }
}

/// Fixed-point scale for cost-benefit scores (keeps integer arithmetic
/// exact over u128 for any realistic capacity × age product).
const CB_SCALE: u128 = 1 << 32;

fn cost_benefit_score(c: &VictimCandidate) -> u128 {
    if c.valid >= c.capacity {
        return u128::MAX; // nothing reclaimable — never profitable
    }
    // Minimize 2u / ((1-u)·age)  ≡  2·valid / ((capacity-valid)·age).
    let num = 2 * u128::from(c.valid) * CB_SCALE;
    let den = u128::from(c.capacity - c.valid) * u128::from(c.age.max(1));
    num / den
}

/// Index (into `candidates`) of the policy's reference victim, before
/// the wear pass. `None` if the slice is empty.
fn policy_reference(kind: GcPolicyKind, candidates: &[VictimCandidate]) -> Option<usize> {
    match kind {
        GcPolicyKind::Greedy => candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.valid)
            .map(|(i, _)| i),
        GcPolicyKind::CostBenefit => candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| cost_benefit_score(c))
            .map(|(i, _)| i),
        GcPolicyKind::WindowedGreedy => {
            if candidates.is_empty() {
                return None;
            }
            // Greedy over the WINDOW oldest candidates. Ages are compared
            // descending; ties (same age — e.g. all recovery-restored
            // blocks) keep slice order so the window is deterministic.
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(candidates[i].age), i));
            order.truncate(WINDOW);
            let in_window = order
                .into_iter()
                .min_by_key(|&i| (candidates[i].valid, i))?;
            if candidates[in_window].valid >= candidates[in_window].capacity {
                // The whole window is fully valid (nothing reclaimable):
                // widen to plain greedy rather than letting the caller
                // conclude the pool is exhausted.
                return policy_reference(GcPolicyKind::Greedy, candidates);
            }
            Some(in_window)
        }
    }
}

/// Selects a GC victim from `candidates` under policy `kind`, composing
/// the wear-leveling slack pass per `opts`. Returns the chosen
/// candidate's `index` field. Candidates must be pushed in ascending
/// block-index order — greedy tie-breaking depends on slice order.
#[must_use]
pub(crate) fn select_victim(
    kind: GcPolicyKind,
    opts: SelectOpts,
    candidates: &[VictimCandidate],
) -> Option<u32> {
    let ref_idx = policy_reference(kind, candidates)?;
    let reference = candidates[ref_idx];
    if !opts.wear_leveling || (opts.early_return_full && reference.valid >= reference.capacity) {
        return Some(reference.index);
    }
    let slack = (reference.capacity >> VICTIM_WEAR_SLACK_SHIFT).max(1);
    let mut limit = reference.valid.saturating_add(slack);
    if opts.cap_limit {
        limit = limit.min(reference.capacity - 1);
    }
    candidates
        .iter()
        .filter(|c| c.valid <= limit)
        .min_by_key(|c| (c.wear, c.valid, c.index))
        .map(|c| c.index)
        .or(Some(reference.index))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: u32, valid: u32, capacity: u32, age: u64, wear: u32) -> VictimCandidate {
        VictimCandidate {
            index,
            valid,
            capacity,
            age,
            wear,
        }
    }

    #[test]
    fn greedy_picks_first_minimum_in_slice_order() {
        let c = [
            cand(3, 5, 64, 10, 0),
            cand(7, 2, 64, 1, 0),
            cand(9, 2, 64, 99, 0),
        ];
        let opts = SelectOpts::standard(false);
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(7));
    }

    #[test]
    fn greedy_with_wear_prefers_less_worn_within_slack() {
        // capacity 64 → slack 8; valid 2 and 9 are within limit 10, but
        // 12 is not.
        let c = [
            cand(0, 2, 64, 1, 500),
            cand(1, 9, 64, 1, 100),
            cand(2, 12, 64, 1, 1),
        ];
        let opts = SelectOpts::standard(true);
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(1));
    }

    #[test]
    fn wear_early_return_on_fully_valid_best() {
        let c = [cand(0, 64, 64, 1, 500), cand(1, 64, 64, 1, 1)];
        let opts = SelectOpts::standard(true);
        // Standard sites short-circuit to the greedy pick.
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(0));
        // The subpage flavour runs the wear pass (no cap) and takes the
        // less-worn block.
        let sub = SelectOpts::subpage(true);
        assert_eq!(select_victim(GcPolicyKind::Greedy, sub, &c), Some(1));
    }

    #[test]
    fn cap_limit_excludes_fully_valid_blocks() {
        // Greedy best valid=60, slack 8 ⇒ limit min(68, 63)=63: the
        // fully-valid low-wear block must not be chosen.
        let c = [cand(0, 60, 64, 1, 500), cand(1, 64, 64, 1, 1)];
        let opts = SelectOpts::standard(true);
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(0));
    }

    #[test]
    fn cost_benefit_prefers_old_blocks_over_slightly_emptier_hot_ones() {
        // Hot block: 10 valid, age 1 → score 2·10/(54·1).
        // Cold block: 16 valid, age 100 → 2·16/(48·100) — much smaller.
        let c = [cand(0, 10, 64, 1, 0), cand(1, 16, 64, 100, 0)];
        let opts = SelectOpts::standard(false);
        assert_eq!(select_victim(GcPolicyKind::CostBenefit, opts, &c), Some(1));
        // Greedy would take the hot one.
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(0));
    }

    #[test]
    fn cost_benefit_never_picks_fully_valid_when_alternative_exists() {
        let c = [cand(0, 64, 64, 1000, 0), cand(1, 63, 64, 1, 0)];
        let opts = SelectOpts::standard(false);
        assert_eq!(select_victim(GcPolicyKind::CostBenefit, opts, &c), Some(1));
    }

    #[test]
    fn windowed_greedy_restricts_to_oldest_window() {
        // 20 candidates: ages 20..1 descending by index; the emptiest
        // block (valid=0) is the youngest and sits outside the 16-oldest
        // window, so it must NOT be picked.
        let mut c: Vec<VictimCandidate> = (0..20u32)
            .map(|i| cand(i, 10 + i, 64, 20 - u64::from(i), 0))
            .collect();
        c[19].valid = 0; // youngest (age 1) — outside the window
        let opts = SelectOpts::standard(false);
        let picked = select_victim(GcPolicyKind::WindowedGreedy, opts, &c).unwrap();
        assert_eq!(
            picked, 0,
            "greedy-in-window picks the emptiest of the 16 oldest"
        );
        // Plain greedy would have taken index 19.
        assert_eq!(select_victim(GcPolicyKind::Greedy, opts, &c), Some(19));
    }

    #[test]
    fn windowed_equals_greedy_when_pool_fits_in_window() {
        for n in 1..=WINDOW as u32 {
            let c: Vec<VictimCandidate> = (0..n)
                .map(|i| cand(i, (i * 7) % 30, 64, u64::from(i), 0))
                .collect();
            let opts = SelectOpts::standard(false);
            assert_eq!(
                select_victim(GcPolicyKind::WindowedGreedy, opts, &c),
                select_victim(GcPolicyKind::Greedy, opts, &c),
            );
        }
    }

    #[test]
    fn windowed_greedy_widens_past_a_fully_valid_window() {
        // The 16 oldest blocks are all fully valid; a younger block has
        // garbage. Windowed-greedy must widen to it instead of reporting
        // an unreclaimable pool.
        let mut c: Vec<VictimCandidate> = (0..17u32)
            .map(|i| cand(i, 64, 64, 100 - u64::from(i), 0))
            .collect();
        c[16].valid = 3;
        let opts = SelectOpts::standard(false);
        assert_eq!(
            select_victim(GcPolicyKind::WindowedGreedy, opts, &c),
            Some(16)
        );
    }

    #[test]
    fn empty_pool_yields_none() {
        for kind in GcPolicyKind::ALL {
            assert_eq!(select_victim(kind, SelectOpts::standard(true), &[]), None);
        }
    }

    #[test]
    fn kind_round_trips_through_display_and_fromstr() {
        for kind in GcPolicyKind::ALL {
            assert_eq!(kind.name().parse::<GcPolicyKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<GcPolicyKind>().is_err());
    }
}
