//! Sharded execution: deterministic partitioning of the test
//! candidate-pair space and the budget-driven window width inside a
//! shard.
//!
//! Every run scores its test split shard by shard and window by window
//! (see [`crate::pipeline`]); scoring is per pair, so the concatenated
//! score vectors — and everything computed from them — are bit-for-bit
//! the same for any shard count and any window width.

/// How a run is sharded and checkpointed. The default (one shard, no
/// checkpoint directory) scores the test split in a single window
/// whenever the memory budget allows it.
#[derive(Debug, Clone, Default)]
pub struct ShardPolicy {
    /// Number of shards the test split is partitioned into (values
    /// `<= 1` mean unsharded).
    pub shards: usize,
    /// Directory for the `fairem-ckpt/2` manifest and per-shard result
    /// files; `None` disables checkpointing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Reuse committed shard results from `checkpoint_dir` when their
    /// run key matches this run.
    pub resume: bool,
}

/// One contiguous shard of the test pair space: `[start, end)` indices
/// into the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard ordinal (0-based).
    pub index: usize,
    /// First test-pair index (inclusive).
    pub start: usize,
    /// One past the last test-pair index.
    pub end: usize,
}

impl Shard {
    /// Number of pairs in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the shard holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The deterministic shard plan: `n` items cut into `shards` contiguous
/// windows whose sizes differ by at most one (the first `n % shards`
/// shards get the extra item). Purely arithmetic — no clock, RNG, or
/// machine state — so every run of the same configuration produces the
/// identical plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Partition `n` items into `shards` contiguous windows. `shards`
    /// is clamped to `[1, max(n, 1)]` so no shard is empty unless
    /// `n == 0` (then a single empty shard keeps the loop shape).
    pub fn partition(n: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, n.max(1));
        let base = n / k;
        let extra = n % k;
        let mut out = Vec::with_capacity(k);
        let mut start = 0;
        for index in 0..k {
            let len = base + usize::from(index < extra);
            out.push(Shard {
                index,
                start,
                end: start + len,
            });
            start += len;
        }
        ShardPlan { shards: out }
    }

    /// The planned shards, in execution order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the plan.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the plan holds no shards (never happens via
    /// [`ShardPlan::partition`]).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Deterministic window width for processing `shard_len` pairs under
/// `headroom` budget bytes when each pair's build transiently costs
/// `per_pair` bytes: as many pairs as fit, at least one, at most the
/// shard. `None` headroom (unlimited tracker) takes the whole shard.
pub fn window_len(shard_len: usize, headroom: Option<u64>, per_pair: u64) -> usize {
    match headroom {
        None => shard_len.max(1),
        Some(h) => {
            let fit = h.checked_div(per_pair).unwrap_or(shard_len as u64);
            (fit.min(shard_len as u64) as usize).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let plan = ShardPlan::partition(10, 3);
        let s = plan.shards();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].start, s[0].end), (0, 4));
        assert_eq!((s[1].start, s[1].end), (4, 7));
        assert_eq!((s[2].start, s[2].end), (7, 10));
        assert!(s.iter().all(|sh| sh.len() >= 3));
    }

    #[test]
    fn partition_clamps_degenerate_requests() {
        assert_eq!(ShardPlan::partition(5, 0).len(), 1);
        assert_eq!(ShardPlan::partition(5, 99).len(), 5);
        let empty = ShardPlan::partition(0, 4);
        assert_eq!(empty.len(), 1);
        assert!(empty.shards()[0].is_empty());
    }

    #[test]
    fn window_len_is_clamped_and_deterministic() {
        assert_eq!(window_len(100, None, 8), 100);
        assert_eq!(window_len(100, Some(160), 16), 10);
        assert_eq!(window_len(100, Some(0), 16), 1, "always makes progress");
        assert_eq!(window_len(100, Some(u64::MAX), 16), 100);
        assert_eq!(window_len(0, None, 8), 1);
    }
}
